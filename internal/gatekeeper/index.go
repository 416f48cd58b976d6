package gatekeeper

import (
	"math"

	"commlat/internal/core"
)

// This file implements the disequality-keyed active-set index shared by
// both gatekeepers. core.DecomposeDiseq proves, per ordered method
// pair, that the pair condition is implied whenever a set of
// disequality guards x ≠ y all hold; the gatekeeper then buckets active
// invocations by the canonical key hash (core.Value.KeyHash) of each
// guard's x-value, and an incoming invocation probes with its y-values.
// Only colliding entries — those that might falsify a guard — reach the full
// compiled checker, so on workloads over distinct keys the per-check
// cost is O(1) expected in the active-window size instead of linear.
// This realizes, for gatekeepers, the same hashing idea the paper's
// abstract locks use for SIMPLE conditions (§3.2).
//
// Buckets are recycled through a per-slot free list so steady-state
// insert/remove cycles over fresh keys allocate nothing: the map entry
// reuses a pooled bucket whose element slice keeps its capacity.

// nanKey is the key hash all NaNs share.
var nanKey = core.VFloat(math.NaN()).Hash()

// keySlot is one distinct guard key term of a method: the bucket map
// from canonical key hashes to the active entries whose x-value hashed
// there, plus the entries whose x-value the index could not key
// (KeyHash refused it) and which therefore collide with every probe.
// ValueEq-equal values share a hash, so a probe misses no entry it could
// conflict with; unequal values sharing one only meet in the checker.
type keySlot struct {
	term    core.Term // the guard's x term, for dedup and diagnostics
	extract termFn    // compiled x evaluator, run at insert time
	index   map[uint64]*bucket
	unkeyed []*entry
	free    []*bucket // recycled empty buckets
}

// bucket holds the active entries of one key hash. The slice keeps
// its capacity across recycling, so a hot key churns with zero
// allocations after warm-up.
type bucket struct {
	es []*entry
}

func (s *keySlot) getBucket() *bucket {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return b
	}
	return &bucket{}
}

// insert buckets e under key hash k; insertUnkeyed records an entry whose
// key could not be canonicalized.
func (s *keySlot) insert(k uint64, e *entry) {
	b := s.index[k]
	if b == nil {
		b = s.getBucket()
		s.index[k] = b
	}
	b.es = append(b.es, e)
}

func (s *keySlot) insertUnkeyed(e *entry) { s.unkeyed = append(s.unkeyed, e) }

// remove drops e from the slot, as the entry remembers having been
// filed: under k.h, or unkeyed.
func (s *keySlot) remove(k entryKey, e *entry) {
	if !k.keyed {
		removeElem(&s.unkeyed, e)
		return
	}
	b := s.index[k.h]
	if b == nil {
		return
	}
	removeElem(&b.es, e)
	if len(b.es) == 0 {
		delete(s.index, k.h)
		b.es = b.es[:0]
		s.free = append(s.free, b)
	}
}

// probe returns the entries bucketed under k (nil when none).
func (s *keySlot) probe(k uint64) []*entry {
	if b := s.index[k]; b != nil {
		return b.es
	}
	return nil
}

func removeElem(xs *[]*entry, e *entry) {
	s := *xs
	for i, x := range s {
		if x == e {
			s[i] = s[len(s)-1]
			s[len(s)-1] = nil
			*xs = s[:len(s)-1]
			return
		}
	}
}

// indexKey is one compiled guard of a pair plan: the first method's key
// slot to probe and the compiled evaluator of the guard's y term, run
// against the incoming (second) invocation.
type indexKey struct {
	slot  *keySlot
	probe termFn
}

// compileIndex decomposes a pair condition into disequality guards and
// compiles them. bind resolves recorded first-side values exactly as
// for the pair checker (a forward gatekeeper's log slots; a general
// gatekeeper binds only non-pure functions, which its guards never
// contain). When allowStatefulX is false, guards whose x term applies a
// non-pure state function are rejected — a gatekeeper without logs
// cannot reproduce the insert-time state later, and here cannot even
// capture it meaningfully at insert time relative to rollback
// evaluation. slotFor interns x terms into per-method key slots.
//
// Results: the compiled guards, whether the condition is purely their
// conjunction (collision ⟹ conflict), whether any probe needs the
// incoming invocation's return value (probe must wait until after
// execution), and whether the pair is indexable at all.
func compileIndex(
	cond core.Cond,
	pure map[string]bool,
	bind map[string]slotBinding,
	res core.StateFn,
	allowStatefulX bool,
	slotFor func(x core.Term, extract termFn) *keySlot,
) (keys []indexKey, pureDiseq, probePost, ok bool) {
	dec := core.DecomposeDiseq(cond, pure)
	if !dec.Indexable {
		return nil, false, false, false
	}
	for _, gd := range dec.Guards {
		if !allowStatefulX && (containsNonPureFn(gd.X, core.First, pure) || containsNonPureFn(gd.X, core.Second, pure)) {
			return nil, false, false, false
		}
		if mentionsRet(gd.Y, core.Second) {
			probePost = true
		}
		keys = append(keys, indexKey{
			slot:  slotFor(gd.X, compileTerm(gd.X, bind, res)),
			probe: compileTerm(gd.Y, bind, res),
		})
	}
	return keys, dec.Pure, probePost, true
}
