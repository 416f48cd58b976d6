// Package intset provides the paper's running-example ADT: a set of
// integers, with the full family of commutativity specifications used in
// the evaluation (§5's set microbenchmark, Table 2) and concurrent
// implementations synthesized from each lattice point:
//
//   - PreciseSpec (figure 2, ONLINE-CHECKABLE) → forward gatekeeper
//   - RWSpec (figure 3, SIMPLE) → read/write abstract locks on elements
//   - ExclusiveSpec (§4.1, SIMPLE) → exclusive abstract locks on elements
//   - PartitionedSpec (§4.2, keyed SIMPLE) → locks on partitions
//   - Bottom (§4.1) → a single global lock
//
// Two concrete representations (hash and sorted-slice) demonstrate that
// specifications and detectors depend only on the abstract state.
package intset

import (
	"sort"
	"sync"

	"commlat/internal/core"
)

// Sig is the set's ADT signature: add, remove and contains, each taking
// one element and returning a boolean.
func Sig() *core.ADTSig {
	return &core.ADTSig{Name: "set", Methods: []core.MethodSig{
		{Name: "add", Params: []string{"x"}, HasRet: true},
		{Name: "remove", Params: []string{"x"}, HasRet: true},
		{Name: "contains", Params: []string{"x"}, HasRet: true},
	}}
}

// PreciseSpec is figure 2: operations commute when their arguments differ
// or when neither mutated the set (both returned false; for contains,
// when the mutator returned false).
func PreciseSpec() *core.Spec {
	neOrBothFalse := core.Or(core.Ne(core.Arg1(0), core.Arg2(0)),
		core.And(core.Eq(core.Ret1(), core.Lit(false)), core.Eq(core.Ret2(), core.Lit(false))))
	neOrR1False := core.Or(core.Ne(core.Arg1(0), core.Arg2(0)), core.Eq(core.Ret1(), core.Lit(false)))
	s := core.NewSpec(Sig())
	s.Set("add", "add", neOrBothFalse)
	s.Set("add", "remove", neOrBothFalse)
	s.Set("add", "contains", neOrR1False)
	s.Set("remove", "remove", neOrBothFalse)
	s.Set("remove", "contains", neOrR1False)
	s.Set("contains", "contains", core.True())
	return s
}

// RWSpec is figure 3, PreciseSpec's SIMPLE strengthening (§4.1):
// operations commute when their arguments differ; contains always
// commutes with contains. Its synthesized locking scheme uses read/write
// locks on elements.
func RWSpec() *core.Spec { return rwPoint().Clone() }

// rwPoint runs the prover once (about a millisecond); RWSpec hands out
// copies, since callers may Set on what they get.
var rwPoint = sync.OnceValue(func() *core.Spec { return core.StrengthenToSimple(PreciseSpec()) })

// ExclusiveSpec strengthens RWSpec further (§4.1): contains commutes with
// contains only on different elements, so the synthesized locks are
// cheaper exclusive locks.
func ExclusiveSpec() *core.Spec { return core.Exclusive(RWSpec()) }

// PartitionKey is the name of the pure partition function used by
// PartitionedSpec.
const PartitionKey = "part"

// PartitionedSpec applies disciplined lock coarsening (§4.2) to RWSpec:
// every element disequality becomes a partition disequality, and the
// synthesized scheme locks one of nparts partitions per access.
func PartitionedSpec() *core.Spec { return core.Partition(RWSpec(), PartitionKey) }

// BottomSpec is ⊥ for the set: nothing commutes; the synthesized scheme
// is one global exclusive lock.
func BottomSpec() *core.Spec { return core.Bottom(Sig()) }

// Partition maps an element to one of nparts partitions (non-negative
// even for negative elements).
func Partition(x int64, nparts int) int64 {
	m := x % int64(nparts)
	if m < 0 {
		m += int64(nparts)
	}
	return m
}

// Rep is a concrete, non-thread-safe set representation. The conflict
// detectors are representation-agnostic: any Rep can sit behind any
// detector.
type Rep interface {
	Add(x int64) bool
	Remove(x int64) bool
	Contains(x int64) bool
	Len() int
	Elems() []int64 // sorted, for snapshots and tests
}

// HashRep is a hash-table-backed representation.
type HashRep struct {
	m map[int64]struct{}
}

// NewHashRep creates an empty hash representation.
func NewHashRep() *HashRep { return &HashRep{m: map[int64]struct{}{}} }

// Add inserts x; it reports whether the set changed.
func (h *HashRep) Add(x int64) bool {
	if _, ok := h.m[x]; ok {
		return false
	}
	h.m[x] = struct{}{}
	return true
}

// Remove deletes x; it reports whether the set changed.
func (h *HashRep) Remove(x int64) bool {
	if _, ok := h.m[x]; !ok {
		return false
	}
	delete(h.m, x)
	return true
}

// Contains reports membership.
func (h *HashRep) Contains(x int64) bool {
	_, ok := h.m[x]
	return ok
}

// Len returns the element count.
func (h *HashRep) Len() int { return len(h.m) }

// Elems returns the elements in ascending order.
func (h *HashRep) Elems() []int64 {
	out := make([]int64, 0, len(h.m))
	for k := range h.m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedRep is a sorted-slice representation: same abstract states as
// HashRep, different concrete states.
type SortedRep struct {
	xs []int64
}

// NewSortedRep creates an empty sorted representation.
func NewSortedRep() *SortedRep { return &SortedRep{} }

func (s *SortedRep) search(x int64) (int, bool) {
	i := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] >= x })
	return i, i < len(s.xs) && s.xs[i] == x
}

// Add inserts x; it reports whether the set changed.
func (s *SortedRep) Add(x int64) bool {
	i, found := s.search(x)
	if found {
		return false
	}
	s.xs = append(s.xs, 0)
	copy(s.xs[i+1:], s.xs[i:])
	s.xs[i] = x
	return true
}

// Remove deletes x; it reports whether the set changed.
func (s *SortedRep) Remove(x int64) bool {
	i, found := s.search(x)
	if !found {
		return false
	}
	s.xs = append(s.xs[:i], s.xs[i+1:]...)
	return true
}

// Contains reports membership.
func (s *SortedRep) Contains(x int64) bool {
	_, found := s.search(x)
	return found
}

// Len returns the element count.
func (s *SortedRep) Len() int { return len(s.xs) }

// Elems returns the elements in ascending order.
func (s *SortedRep) Elems() []int64 {
	return append([]int64(nil), s.xs...)
}
