package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// stamped is what a ring needs of its records: the timestamp the drain
// merges shards by.
type stamped interface{ stamp() int64 }

// ringShards is the shard count of the per-worker rings. Worker IDs are
// masked into this range, so any worker count works; with fewer than 64
// workers every worker owns its shard and the shard mutex never
// contends.
const ringShards = 64

// ringShard is one worker's window, padded to a cache line so records
// of different workers touch no common line.
type ringShard[T stamped] struct {
	mu  sync.Mutex
	buf []T
	pos uint64 // records ever written to this shard (head = pos % len)
	_   [24]byte
}

// lapped is how many of the shard's records wraparound has overwritten.
func (s *ringShard[T]) lapped() uint64 {
	if n := uint64(len(s.buf)); s.pos > n {
		return s.pos - n
	}
	return 0
}

// ring is the record mechanism under the event trace, the flight
// recorder and the audit trail: fixed per-worker windows that overwrite
// their oldest record when full, so what is buffered is always the most
// recent window and nothing is released record by record. The shard
// count is fixed at construction and is a power of two.
type ring[T stamped] struct {
	enabled atomic.Bool
	shards  []ringShard[T]
}

// enable sizes every shard at perShard records (rounded up to a power
// of two), discarding what was buffered, and opens the gate.
func (r *ring[T]) enable(perShard int) {
	n := 1
	for n < perShard {
		n <<= 1
	}
	r.resize(n)
	r.enabled.Store(true)
}

// disable closes the gate and releases the buffers; a put that raced
// past the gate finds an empty shard and writes nothing.
func (r *ring[T]) disable() { r.resize(0) }

func (r *ring[T]) resize(n int) {
	r.enabled.Store(false)
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.buf = make([]T, n)
		s.pos = 0
		s.mu.Unlock()
	}
}

// put copies *rec into the worker's shard, overwriting the oldest
// record when full. It allocates nothing. Callers check the gate first.
func (r *ring[T]) put(worker int, rec *T) {
	s := &r.shards[worker&(len(r.shards)-1)]
	s.mu.Lock()
	if len(s.buf) != 0 {
		s.buf[s.pos&uint64(len(s.buf)-1)] = *rec
		s.pos++
	}
	s.mu.Unlock()
}

// drain returns a copy of the buffered records, oldest first, merged
// across shards by timestamp and then by worker: shards are read in
// worker order and the sort is stable. The ring keeps running.
func (r *ring[T]) drain() []T {
	out := []T{} // never nil: an empty trail exports as [], not null
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for p := s.lapped(); p < s.pos; p++ {
			out = append(out, s.buf[p&uint64(len(s.buf)-1)])
		}
		s.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].stamp() < out[j].stamp() })
	return out
}

// dropped reports how many records wraparound has overwritten since
// enable.
func (r *ring[T]) dropped() uint64 {
	var n uint64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.lapped()
		s.mu.Unlock()
	}
	return n
}
