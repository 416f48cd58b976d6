package engine

import "sync"

// Worklist is a concurrent bag of pending work items. Speculative
// iterations may push new items while the executor drains it (preflow-push
// re-enqueues overflowing nodes, clustering enqueues merged clusters, and
// so on).
//
// It is one FIFO queue behind one mutex, shared by every worker: items
// come out in the order they went in, whichever worker pushed them. The
// applications are unordered algorithms for which any order is correct,
// but the order sets how much work they do. One global order keeps the
// work at p workers that of one worker (a worker that popped its own
// pushes first would keep growing one Borůvka component), and it keeps
// the fairness clustering's retry loop needs: a requeued item goes behind
// every item already queued, so it is popped again only after each of
// those has had its turn.
type Worklist[T any] struct {
	mu    sync.Mutex
	items []T
	head  int
	// inflight counts items popped but not yet retired, so a worker can
	// tell "temporarily empty" from "done".
	inflight int
}

// NewWorklist creates a worklist seeded with items.
func NewWorklist[T any](items ...T) *Worklist[T] {
	return &Worklist[T]{items: append([]T(nil), items...)}
}

// Push adds items to the back of the worklist.
func (w *Worklist[T]) Push(items ...T) {
	if len(items) == 0 {
		return
	}
	w.mu.Lock()
	w.items = append(w.items, items...)
	w.mu.Unlock()
}

// pop retires done items the caller popped earlier (committed or
// abandoned), then removes up to len(buf) of the oldest items as one
// batch, marking them in flight, all under one lock acquisition. The
// batch is a contiguous run of the queue. It returns how many items it
// took and, when it took none, whether the whole computation is complete:
// nothing queued and nothing in flight. Only a holder of an in-flight item
// pushes, so once both are zero no item can appear.
func (w *Worklist[T]) pop(done int, buf []T) (int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inflight -= done
	n := min(len(w.items)-w.head, len(buf))
	if n == 0 {
		return 0, w.head == len(w.items) && w.inflight == 0
	}
	var zero T
	for k := range buf[:n] {
		buf[k] = w.items[w.head+k]
		w.items[w.head+k] = zero // release for GC
	}
	w.head += n
	w.inflight += n
	if w.head == len(w.items) {
		w.items = w.items[:0]
		w.head = 0
	} else if w.head > 1024 && w.head*2 > len(w.items) {
		m := copy(w.items, w.items[w.head:])
		w.items = w.items[:m]
		w.head = 0
	}
	return n, false
}
