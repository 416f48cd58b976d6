package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Worklist is a concurrent bag of pending work items. Speculative
// iterations may push new items while the executor drains it (preflow-push
// re-enqueues overflowing nodes, clustering enqueues merged clusters, and
// so on).
//
// Internally the items live in power-of-two many FIFO shards, each with
// its own mutex. A Worklist value is a *view* onto the shared shards: the
// handle NewWorklist returns is pinned to shard 0, so a single-threaded
// producer/consumer sees strict global FIFO order; the executor gives
// each worker its own view (forWorker) whose pushes land on the worker's
// home shard and whose pops drain the home shard first and steal the
// oldest items from other shards when it runs dry. The applications are
// unordered algorithms for which any order is correct; FIFO-per-shard
// keeps the fairness clustering's retry loop needs (a re-enqueued item is
// never the next one popped from its shard).
type Worklist[T any] struct {
	s    *wlShared[T]
	home int
}

type wlShard[T any] struct {
	mu    sync.Mutex
	items []T
	head  int
	_     [24]byte // keep neighboring shard mutexes off one cache line
}

type wlShared[T any] struct {
	shards []wlShard[T]
	// inflight counts items popped but not yet committed or re-pushed,
	// so workers can distinguish "temporarily empty" from "done".
	inflight atomic.Int64
	// pushes counts Push calls (monotonically); the termination check
	// uses it to detect items that appeared behind an emptiness scan.
	pushes atomic.Uint64
}

const maxShards = 64

// wlShards picks the shard count: the smallest power of two covering
// GOMAXPROCS, at least 2 (so stealing is exercised even
// single-threaded) and at most maxShards.
//
// The count is sampled exactly once, at construction, and the worklist
// keeps that shard array for its whole life — deliberately so. A
// runtime.GOMAXPROCS change mid-run would otherwise invite a resize,
// which has no safe cheap form: re-sharding must move queued items
// (breaking per-shard FIFO mid-stream) while racing workers hold views
// computed against the old length. Views instead take the shard count
// modulo len(shards) at creation, so any worker count works correctly
// against any snapshot: shrinking GOMAXPROCS just leaves some shards
// cold, growing it doubles workers up on home shards. Both degrade
// locality, never correctness.
func wlShards() int {
	k := 2
	for k < runtime.GOMAXPROCS(0) && k < maxShards {
		k <<= 1
	}
	return k
}

// NewWorklist creates a worklist seeded with items. The returned handle
// is pinned to shard 0: pushes and pops through it are strictly FIFO.
func NewWorklist[T any](items ...T) *Worklist[T] {
	s := &wlShared[T]{shards: make([]wlShard[T], wlShards())}
	s.shards[0].items = append(s.shards[0].items, items...)
	return &Worklist[T]{s: s, home: 0}
}

// forWorker returns worker w's view of the same worklist.
func (w *Worklist[T]) forWorker(i int) *Worklist[T] {
	return &Worklist[T]{s: w.s, home: i % len(w.s.shards)}
}

// Push adds items to the worklist (on the view's home shard).
func (w *Worklist[T]) Push(items ...T) {
	if len(items) == 0 {
		return
	}
	sh := &w.s.shards[w.home]
	sh.mu.Lock()
	sh.items = append(sh.items, items...)
	w.s.pushes.Add(1)
	sh.mu.Unlock()
}

// Len returns the number of queued (not in-flight) items.
func (w *Worklist[T]) Len() int {
	n := 0
	for i := range w.s.shards {
		sh := &w.s.shards[i]
		sh.mu.Lock()
		n += len(sh.items) - sh.head
		sh.mu.Unlock()
	}
	return n
}

// popShardN removes up to len(buf) of shard i's oldest items under one
// lock acquisition, marking them in-flight, and reports how many it
// took. Items come out in shard FIFO order — a batch is a contiguous
// run of the shard's queue, never an interleaving.
func (s *wlShared[T]) popShardN(i int, buf []T) int {
	sh := &s.shards[i]
	sh.mu.Lock()
	n := len(sh.items) - sh.head
	if n == 0 {
		sh.mu.Unlock()
		return 0
	}
	if n > len(buf) {
		n = len(buf)
	}
	var zero T
	for k := 0; k < n; k++ {
		buf[k] = sh.items[sh.head+k]
		sh.items[sh.head+k] = zero // release for GC
	}
	sh.head += n
	if sh.head == len(sh.items) {
		sh.items = sh.items[:0]
		sh.head = 0
	} else if sh.head > 1024 && sh.head*2 > len(sh.items) {
		m := copy(sh.items, sh.items[sh.head:])
		sh.items = sh.items[:m]
		sh.head = 0
	}
	// Inflight rises while the shard lock is held, before the items can be
	// observed missing, so the termination scan cannot see "empty
	// everywhere, nothing in flight" while a batch is in limbo.
	s.inflight.Add(int64(n))
	sh.mu.Unlock()
	return n
}

// PopBatch removes up to len(buf) items as one batch, marking each
// in-flight (doneN retires them). The home shard is drained first under
// a single lock acquisition; when it is dry the view steals a whole run
// from the first non-empty victim shard rather than single items, so a
// batch always preserves one shard's FIFO order and never mixes shards.
// The second result reports whether the whole computation is complete
// (empty and nothing in flight); it is only meaningful when the count
// is 0.
//
// Termination is decided by a validated scan: observe inflight == 0,
// snapshot the push counter, observe every shard empty, then confirm
// both counters unchanged. New items only appear via Push, which bumps
// the counter, and only workers holding an in-flight item (or an
// external producer, likewise counted) push — so an unchanged counter
// pair proves the emptiness observations describe one coherent instant.
func (w *Worklist[T]) PopBatch(buf []T) (int, bool) {
	if len(buf) == 0 {
		return 0, false
	}
	s := w.s
	n := len(s.shards)
	for off := 0; off < n; off++ {
		if k := s.popShardN((w.home+off)%n, buf); k > 0 {
			return k, false
		}
	}
	if s.inflight.Load() != 0 {
		return 0, false
	}
	p1 := s.pushes.Load()
	for i := 0; i < n; i++ {
		sh := &s.shards[i]
		sh.mu.Lock()
		empty := sh.head == len(sh.items)
		sh.mu.Unlock()
		if !empty {
			return 0, false
		}
	}
	return 0, s.pushes.Load() == p1 && s.inflight.Load() == 0
}

// doneN marks n popped items finished (committed or abandoned).
func (w *Worklist[T]) doneN(n int) {
	w.s.inflight.Add(-int64(n))
}
