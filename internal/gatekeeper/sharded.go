package gatekeeper

// This file implements the key-affinity sharded cascade: N independent
// Cascade instances behind a router that hash-partitions admissions by
// their conflict-key values.
//
// The cascade's conflict discovery is entirely key-directed: an incoming
// invocation can only collide with a live one if some disequality
// guard's two sides evaluate to equal values — and equal values hash
// equally, so both parties land in the same shard. Routing every
// publication and probe of an invocation to the shards its key hashes
// name therefore preserves the detector's verdict exactly, while
// invocations whose keys all fall in one shard touch only that shard's
// filter, slot table and chains.
//
// Each shard additionally carries a ticket (a pad-separated parking
// mutex) serializing admissions into it. Single-shard invocations take their
// home ticket alone; multi-shard invocations (several key hashes in
// different shards, or methods whose conflicts are not key-directed)
// rendezvous: they acquire every affected ticket in ascending shard
// order and publish their full key vector into each affected shard. The
// canonical order makes deadlock impossible — any cycle among ticket
// holders would need some holder acquiring a lower shard than one it
// already holds, which the ascending discipline forbids — and because
// admissions within a shard are ticket-serialized, the racing
// publish/probe window the single-cascade protocol defends against
// cannot even open between admissions of the same shard.
//
// Rendezvous publications are exactly-once in effect: only the lowest
// affected shard's record carries the invocation's undo closure (the
// others hold nil, which UndoTx skips), so an abort undoes the effect
// once no matter how many shards republished the keys. Spilled argument
// vectors are deep-copied for the ghost records, since each shard's
// release returns its record's spill to the pool independently.

import (
	"fmt"
	"runtime"
	"sync"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// maxRouteTerms bounds how many distinct key/probe terms the router
// evaluates per invocation; methods beyond it (or with scan plans, or
// context-dependent terms) always rendezvous over every shard.
const maxRouteTerms = 16

// maxShards caps the shard count; the mixer takes the shard index from
// the top byte region of the golden-ratio product.
const maxShards = 256

// shardRoute is the per-method routing plan: the simple terms whose
// value hashes decide the affected shard set.
type shardRoute struct {
	// keyed marks methods whose conflicts are entirely key-directed
	// (all publish keys and probe terms simple, no method-chain scan
	// plans): the affected shards are exactly the terms' hash shards.
	keyed bool
	// argOnly marks keyed methods routable before execution (no term
	// reads the return value) — the KeyOf / batch routing precondition.
	argOnly bool
	minArgs int
	// terms[:nPubs] are the published key terms in publication order;
	// the rest are probe terms not coinciding with a published key.
	terms []simpleTerm
	nPubs int
}

// shardTicket serializes admissions into one shard. A parking mutex,
// not a spin loop: single-shard admissions are uncontended by design,
// so the fast path is one CAS either way, while a rendezvous waiting on
// a busy shard parks instead of burning the preempted holder's quantum
// on oversubscribed schedulers. Padded so neighboring shards' tickets
// never share a cache line.
type shardTicket struct {
	mu sync.Mutex
	_  [56]byte
}

func (t *shardTicket) lock()   { t.mu.Lock() }
func (t *shardTicket) unlock() { t.mu.Unlock() }

// ShardedCascade routes cascade admissions to key-affine shards. Invoke
// and InvokeBatch are safe for concurrent use; verdicts are identical
// to a single Cascade over the same specification.
type ShardedCascade struct {
	shards  []*Cascade
	tickets []shardTicket
	mask    uint32
	mids    map[string]uint16
	routes  []shardRoute
	tele    *telemetry.Detector
}

// DefaultShards picks the shard count for NewSharded: the smallest
// power of two covering GOMAXPROCS, capped at maxShards.
func DefaultShards() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < maxShards {
		n <<= 1
	}
	return n
}

// NewSharded constructs a sharded cascade with default configuration;
// shards <= 0 means DefaultShards. The count rounds up to a power of
// two and is capped at 256.
func NewSharded(spec *core.Spec, res core.StateFn, shards int) (*ShardedCascade, error) {
	return NewShardedConfig(spec, res, CascadeConfig{}, shards)
}

// NewShardedConfig is NewSharded with explicit per-shard configuration.
func NewShardedConfig(spec *core.Spec, res core.StateFn, cfg CascadeConfig, shards int) (*ShardedCascade, error) {
	if shards <= 0 {
		shards = DefaultShards()
	}
	n := 1
	for n < shards && n < maxShards {
		n <<= 1
	}
	s := &ShardedCascade{
		shards:  make([]*Cascade, n),
		tickets: make([]shardTicket, n),
		mask:    uint32(n - 1),
	}
	for i := range s.shards {
		c, err := NewCascadeConfig(spec, res, cfg)
		if err != nil {
			return nil, err
		}
		c.tele.SetShard(i + 1)
		s.shards[i] = c
	}
	c0 := s.shards[0]
	s.mids = c0.mids
	s.routes = make([]shardRoute, len(c0.mtab))
	for mid := range c0.mtab {
		mt := &c0.mtab[mid]
		rt := &s.routes[mid]
		rt.minArgs = mt.minArgs
		if !mt.allSimple || len(mt.scanM1s) > 0 {
			continue // keyed=false: rendezvous over every shard
		}
		for i := range c0.pubs[mid] {
			rt.terms = append(rt.terms, c0.pubs[mid][i].simple)
		}
		rt.nPubs = len(rt.terms)
		for i := range mt.fastProbes {
			if mt.probeKey[i] >= 0 {
				continue // probe term coincides with a published key
			}
			rt.terms = append(rt.terms, mt.fastProbes[i].simple)
		}
		if len(rt.terms) > maxRouteTerms {
			rt.terms = nil
			rt.nPubs = 0
			continue
		}
		rt.keyed = true
		rt.argOnly = true
		for _, t := range rt.terms {
			if t.kind == stRet {
				rt.argOnly = false
				break
			}
		}
	}
	s.tele = telemetry.Register("cascade-sharded", spec.Sig.Name, c0.names)
	return s, nil
}

// shardOf maps a key hash to its owning shard. The filter cells and
// bucket chains inside each shard consume the hash's low bits, so the
// shard index comes from high bits of a golden-ratio mix — shard choice
// and cell choice stay independent even for sequential integer keys.
func (s *ShardedCascade) shardOf(h uint64) uint32 {
	return uint32((h*0x9E3779B97F4A7C15)>>48) & s.mask
}

// Shards reports the shard count.
func (s *ShardedCascade) Shards() int { return len(s.shards) }

// Shard exposes one underlying cascade (telemetry, stats).
func (s *ShardedCascade) Shard(i int) *Cascade { return s.shards[i] }

// Telemetry exposes the router's telemetry handle (local/crossing
// admission counters; per-shard counters live on each Shard(i)).
func (s *ShardedCascade) Telemetry() *telemetry.Detector { return s.tele }

// ActiveInvocations sums the live invocations across shards. A
// single-shard admission holds one record; a rendezvous admission holds
// one per affected shard.
func (s *ShardedCascade) ActiveInvocations() int {
	n := 0
	for _, c := range s.shards {
		n += c.ActiveInvocations()
	}
	return n
}

// KeyOf maps an invocation, before execution, to its owning shard. The
// second result is false when the invocation cannot be routed from its
// arguments alone: the method's routing needs the return value or a
// compiled evaluation, a key value is unhashable, or the key hashes
// straddle shards. intset.ShardedCascadeSet partitions its
// representation by the same mapping.
func (s *ShardedCascade) KeyOf(method string, args core.Vec) (int, bool) {
	mid, ok := s.mids[method]
	if !ok {
		return 0, false
	}
	return s.routeArgs(mid, &args)
}

// routeArgs is KeyOf after method lookup: single-shard pre-execution
// routing, usable only for argOnly methods.
func (s *ShardedCascade) routeArgs(mid uint16, args *core.Vec) (int, bool) {
	rt := &s.routes[mid]
	if !rt.keyed || !rt.argOnly || args.Len() < rt.minArgs {
		return 0, false
	}
	var ret core.Value // argOnly: never read
	sh := uint32(0)
	for i := range rt.terms {
		ev := rt.terms[i].eval(args, &ret)
		h, kok := ev.KeyHash()
		if !kok {
			return 0, false
		}
		t := s.shardOf(h)
		if i == 0 {
			sh = t
		} else if t != sh {
			return 0, false
		}
	}
	return int(sh), true
}

// Invoke runs one guarded invocation through the router: execute, hash
// the method's key terms, then admit in the single affected shard under
// its ticket — or rendezvous across the affected set. The verdict
// matches Cascade.Invoke over the same specification exactly.
func (s *ShardedCascade) Invoke(tx *engine.Tx, method string, args core.Vec, exec func() Effect) (core.Value, error) {
	mid, ok := s.mids[method]
	if !ok {
		return core.Value{}, fmt.Errorf("gatekeeper: cascade-sharded: unknown method %q", method)
	}
	eff := exec()
	rt := &s.routes[mid]
	if !rt.keyed || args.Len() < rt.minArgs {
		return s.rendezvous(tx, mid, args, eff, nil, nil)
	}
	var keys [maxCascadeKeys]uint64
	var set [maxRouteTerms]uint32
	nset := 0
	for i := range rt.terms {
		ev := rt.terms[i].eval(&args, &eff.Ret)
		h, kok := ev.KeyHash()
		if !kok {
			return s.rendezvous(tx, mid, args, eff, nil, nil)
		}
		if i < rt.nPubs {
			keys[i] = h
		}
		sh := s.shardOf(h)
		dup := false
		for k := 0; k < nset; k++ {
			if set[k] == sh {
				dup = true
				break
			}
		}
		if !dup {
			set[nset] = sh
			nset++
		}
	}
	if nset == 0 {
		// No key or probe terms at all: the method conflicts with
		// nothing key-directed; any single home shard is correct.
		set[0] = 0
		nset = 1
	}
	if nset == 1 {
		s.tele.ShardLocal()
		t := &s.tickets[set[0]]
		t.lock()
		ret, err := s.shards[set[0]].admitKeyed(tx, mid, &args, &eff, keys[:rt.nPubs])
		t.unlock()
		return ret, err
	}
	sortShardSet(set[:nset])
	return s.rendezvous(tx, mid, args, eff, set[:nset], keys[:rt.nPubs])
}

// sortShardSet sorts a small shard set ascending (insertion sort; the
// set is at most maxRouteTerms entries).
func sortShardSet(set []uint32) {
	for i := 1; i < len(set); i++ {
		v := set[i]
		j := i - 1
		for j >= 0 && set[j] > v {
			set[j+1] = set[j]
			j--
		}
		set[j+1] = v
	}
}

// rendezvous admits one invocation into every shard of set (nil means
// all shards), ticket-locked in ascending order. The lowest shard's
// record is the owner and carries the real undo; the others are ghosts
// republishing the same keys so probes anywhere still meet them. On
// refusal the effect is undone once and every publication retracted.
// keys, when non-nil, are the invocation's already-evaluated publish
// hashes (the router computed them for shard selection), which each
// shard's admit then publishes instead of re-evaluating.
func (s *ShardedCascade) rendezvous(tx *engine.Tx, mid uint16, args core.Vec, eff Effect, set []uint32, keys []uint64) (core.Value, error) {
	s.tele.ShardCross()
	t0 := telemetry.LatClock()
	if set == nil {
		var all [maxShards]uint32
		for i := range s.shards {
			all[i] = uint32(i)
		}
		set = all[:len(s.shards)]
	}
	for _, sh := range set {
		s.tickets[sh].lock()
	}
	var words [maxShards]uint64
	n := 0
	var err error
	for _, sh := range set {
		e := Effect{Ret: eff.Ret}
		a := args
		if n == 0 {
			e.Undo = eff.Undo
		} else if args.Len() > core.MaxInlineArgs {
			// Ghost records release their spill independently at
			// teardown; they must not share the owner's backing array.
			var cp core.Vec
			for j := 0; j < args.Len(); j++ {
				cp.Append(args.At(j))
			}
			a = cp
		}
		words[n], err = s.shards[sh].admit(tx, mid, &a, &e, keys, n == 0)
		if err != nil {
			// The refused shard already retracted its publication
			// (releasing the published copy's spill); nothing to free.
			break
		}
		n++
	}
	if err != nil {
		if eff.Undo != nil {
			eff.Undo()
		}
		for i := n - 1; i >= 0; i-- {
			s.shards[set[i]].retractWord(words[i])
		}
	} else {
		for i, sh := range set {
			s.shards[sh].attach(tx, words[i])
		}
	}
	for i := len(set) - 1; i >= 0; i-- {
		s.tickets[set[i]].unlock()
	}
	if obsInstrumented(t0) {
		// t0 spans the whole rendezvous, ticket acquisition through verdict.
		rec := telemetry.FlightRecord{Det: s.tele.ID(), Method: mid, Verdict: verdictOf(err), Shards: shardMask(set)}
		rec.Mark(telemetry.StageRendezvous, since(t0))
		observe(tx, &rec, t0, 1<<telemetry.StageRendezvous)
	}
	return eff.Ret, err
}

// shardMask packs a shard set into the flight record's 64-bit bitmask
// (shard IDs mod 64).
func shardMask(set []uint32) uint64 {
	var m uint64
	for _, sh := range set {
		m |= 1 << (sh & 63)
	}
	return m
}

// InvokeBatch admits a batch through the router: ops are split into
// maximal runs routable to one shard, and each run delegates to that
// shard's batched admission under its ticket. An op that cannot be
// routed from its arguments, or a run the shard admits short, bounds
// the admitted prefix; the caller re-runs the remainder serially
// through Invoke, exactly as with Cascade.InvokeBatch.
func (s *ShardedCascade) InvokeBatch(ops []BatchOp, exec func(run []BatchOp)) int {
	// Batches are near-always single-method; memoize the method lookup
	// so run scanning costs one map probe per method change, not per op.
	memoMethod := ""
	memoMid := uint16(0)
	memoOK := false
	route := func(op *BatchOp) (int, bool) {
		if op.Method != memoMethod {
			memoMid, memoOK = s.mids[op.Method]
			memoMethod = op.Method
		}
		if !memoOK {
			return 0, false
		}
		return s.routeArgs(memoMid, &op.Args)
	}
	done := 0
	for done < len(ops) {
		sh, ok := route(&ops[done])
		if !ok {
			break
		}
		j := done + 1
		for j < len(ops) {
			sh2, ok2 := route(&ops[j])
			if !ok2 || sh2 != sh {
				break
			}
			j++
		}
		s.tele.ShardLocalN(j - done)
		t := &s.tickets[uint32(sh)]
		t.lock()
		p := s.shards[sh].InvokeBatch(ops[done:j], exec)
		t.unlock()
		done += p
		if done < j {
			return done
		}
	}
	return done
}

// retractWord withdraws one not-yet-attached admission word.
func (c *Cascade) retractWord(w uint64) {
	if w&ovTag == 0 {
		c.retractSlot(uint32(w - 1))
	} else {
		c.retractOverflow(uint32(w&^ovTag) - 1)
	}
}
