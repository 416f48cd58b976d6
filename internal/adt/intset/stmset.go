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
	elems    map[int64]bool
}

// NewSTM creates an STM-backed set with nbuckets conflict-detection
// granules (more buckets = finer concrete footprints).
func NewSTM(nbuckets int) *STMSet {
	return &STMSet{mem: abslock.NewMemory(), nbuckets: int64(nbuckets), elems: map[int64]bool{}}
}

// bucket is the id of x's bucket, x mod nbuckets.
func (s *STMSet) bucket(x int64) int64 { return (x%s.nbuckets + s.nbuckets) % s.nbuckets }

// Add inserts x under memory-level detection: the bucket is read first
// (hash lookup) and written only if the set changes — the concrete
// footprint an STM would observe.
func (s *STMSet) Add(tx *engine.Tx, x int64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mem.Read(tx, s.bucket(x)); err != nil {
		return false, err
	}
	if s.elems[x] {
		return false, nil
	}
	if err := s.mem.Write(tx, s.bucket(x)); err != nil {
		return false, err
	}
	s.elems[x] = true
	tx.OnUndo(func() {
		s.mu.Lock()
		delete(s.elems, x)
		s.mu.Unlock()
	})
	return true, nil
}

// Remove deletes x under memory-level detection.
func (s *STMSet) Remove(tx *engine.Tx, x int64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.mem.Read(tx, s.bucket(x)); err != nil {
		return false, err
	}
	if !s.elems[x] {
		return false, nil
	}
	if err := s.mem.Write(tx, s.bucket(x)); err != nil {
		return false, err
	}
	delete(s.elems, x)
	tx.OnUndo(func() {
		s.mu.Lock()
		s.elems[x] = true
		s.mu.Unlock()
	})
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
	return s.elems[x], nil
}

// Snapshot returns the elements; only safe with no live transactions.
func (s *STMSet) Snapshot() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := NewHashRep()
	for x := range s.elems {
		rep.Add(x)
	}
	return rep.Elems()
}

var _ Set = (*STMSet)(nil)
