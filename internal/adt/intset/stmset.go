package intset

import (
	"sync"

	"commlat/internal/abslock"
	"commlat/internal/engine"
)

// STMSet is the §4.3 baseline: a set whose conflict detection is the
// concrete-commutativity point FC — memory-level locks (abslock.Memory)
// on the representation's buckets, as an object-granularity
// transactional memory would take them. Two invocations conflict
// whenever one writes a bucket the other touched, regardless of whether
// they commute abstractly. FC sits below the precise specification F* in
// the lattice (concrete commutativity implies semantic commutativity),
// which tests demonstrate behaviourally: everything the STM set allows,
// the gatekeeper allows, but not vice versa.
type STMSet struct {
	mu       sync.Mutex
	mem      *abslock.Memory
	nbuckets int64
	elems    *HashRep
	log      *engine.UndoLog[setRec]
}

// NewSTM creates an STM-backed set with nbuckets conflict-detection
// granules (more buckets = finer concrete footprints).
func NewSTM(nbuckets int) *STMSet {
	s := &STMSet{mem: abslock.NewMemory(), nbuckets: int64(nbuckets), elems: NewHashRep()}
	s.log = engine.NewUndoLog(&s.mu, func(r setRec) { r.apply(s.elems, true) })
	return s
}

// bucket is the id of x's bucket, x mod nbuckets.
func (s *STMSet) bucket(x int64) int64 { return (x%s.nbuckets + s.nbuckets) % s.nbuckets }

// Add inserts x under memory-level detection.
func (s *STMSet) Add(tx *engine.Tx, x int64) (bool, error) { return s.mutate(tx, setRec{opAdd, x}) }

// Remove deletes x under memory-level detection.
func (s *STMSet) Remove(tx *engine.Tx, x int64) (bool, error) {
	return s.mutate(tx, setRec{opRemove, x})
}

// mutate applies r under memory-level detection: the bucket is read
// first (hash lookup) and written only if the set changes — the concrete
// footprint an STM would observe.
func (s *STMSet) mutate(tx *engine.Tx, r setRec) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mem.Read(tx, s.bucket(r.x)); err != nil {
		return false, err
	}
	if s.elems.Contains(r.x) == (r.op == opAdd) {
		return false, nil
	}
	if err := s.mem.Write(tx, s.bucket(r.x)); err != nil {
		return false, err
	}
	r.apply(s.elems, false)
	s.log.Record(tx, r)
	return true, nil
}

// Contains queries membership under memory-level detection (a bucket
// read).
func (s *STMSet) Contains(tx *engine.Tx, x int64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mem.Read(tx, s.bucket(x)); err != nil {
		return false, err
	}
	return s.elems.Contains(x), nil
}

// Snapshot returns the elements; only safe with no live transactions.
func (s *STMSet) Snapshot() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elems.Elems()
}

var _ Set = (*STMSet)(nil)
