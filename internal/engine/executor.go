package engine

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"commlat/internal/telemetry"
)

// Stats summarizes a speculative run.
type Stats struct {
	Committed uint64        // iterations that committed
	Aborts    uint64        // abort/retry events
	Elapsed   time.Duration // wall-clock time of the run
	// Busy is the summed per-worker lifetime minus the time each worker
	// measured itself idle: backoff sleeps, and the yield-and-pop-again
	// spin after an empty pop. Iteration bodies, commit/abort processing,
	// successful pops and the loop around them are inside it; the clock is
	// read only around the idle stretches, not per item.
	// Busy/(Workers*Elapsed) approximates utilization; Busy/Committed is
	// the paper's per-iteration overhead quantity.
	Busy time.Duration
	// MaxedBackoffRetries counts retries taken after backoff had already
	// saturated at maxBackoff — a high count relative to Aborts
	// means the backoff ceiling, not the detector, is pacing the run.
	MaxedBackoffRetries uint64
}

// AbortRatio returns aborts as a fraction of all attempts
// (commits + aborts), the quantity Table 2 reports as "Abort Ratio %".
func (s Stats) AbortRatio() float64 {
	total := s.Committed + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// Options configures a speculative run.
type Options struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// MaxRetries aborts the run with an error when a single item fails
	// more than this many times (a livelock guard). 0 means unlimited.
	MaxRetries int
	// Seed seeds per-worker backoff randomization for reproducibility.
	Seed int64
	// BatchSize is the number of items RunBatched pops at a time;
	// 0 means a default of 32. Ignored by Run.
	BatchSize int
}

// NumWorkers is the number of workers Run and RunBatched start: Workers,
// or GOMAXPROCS when Workers is 0. Worker indices (Tx.Worker) run from 0
// to NumWorkers()-1.
func (o Options) NumWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) batchSize() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return 32
}

// maxBackoff caps the randomized backoff after an abort: the backoff
// starts at 1µs and doubles per consecutive abort of the same item while
// it is below this cap.
const maxBackoff = 100 * time.Microsecond

// Body is one speculative iteration: it operates on item through
// detector-guarded data structure wrappers, registering undo and release
// actions on tx as it goes. Returning an error satisfying IsConflict
// causes abort-and-retry; any other error cancels the whole run.
type Body[T any] func(tx *Tx, item T, wl *Worklist[T]) error

// Run drains the worklist with opts.Workers speculative workers, applying
// body to each item inside a fresh transaction. It is the Galois-style
// optimistic loop of the paper: conflicts roll the iteration back (inverse
// methods via the tx undo log) and the item is retried after randomized
// backoff. All workers share the worklist's one FIFO queue; a worker
// retires its previous item in the same lock acquisition that pops its
// next. If several workers fail, all their errors are returned, joined.
func Run[T any](wl *Worklist[T], opts Options, body Body[T]) (Stats, error) {
	return runWorkers(wl, opts, 1, func(txs []*Tx, items []T, wl *Worklist[T], errs []error) error {
		for i, tx := range txs {
			if errs[i] = body(tx, items[i], wl); errs[i] == nil {
				tx.Commit()
			}
		}
		return nil
	})
}

// runWorkers is the executor both entry points share: opts.Workers
// goroutines, each with its own backoff PCG and batch buffers, pop up to
// n items at a time and put them through body until the worklist reports
// termination or a worker fails.
func runWorkers[T any](wl *Worklist[T], opts Options, n int, body BatchBody[T]) (Stats, error) {
	AlignTxIDs()
	start := time.Now()
	var stats Stats
	var mu sync.Mutex // guards stats while workers fold their counts in
	nw := opts.NumWorkers()
	errc := make(chan error, nw)
	var stop atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := worker[T]{
				id: w, wl: wl, body: body, opts: opts, born: time.Now(),
				// PCG seeded by (run seed, worker index): reproducible for a
				// fixed Options.Seed, distinct per worker.
				rng:   rand.New(rand.NewPCG(uint64(opts.Seed), uint64(w))),
				items: make([]T, n), txs: make([]*Tx, n), errs: make([]error, n),
			}
			defer func() {
				// A panicking body cancels the run. What its attempt left
				// active is ended first (undo unless sealed, then
				// release), so no detector slot or abstract lock outlives
				// the run. Shells of earlier attempts still in the buffer
				// have finished.
				if r := recover(); r != nil {
					for _, tx := range wk.txs {
						if tx != nil && tx.Status() == Active {
							tx.abandon()
						}
					}
					stop.Store(true)
					errc <- fmt.Errorf("engine: iteration body panicked: %v\n%s", r, debug.Stack())
				}
				mu.Lock()
				stats.Committed += wk.stats.Committed
				stats.Aborts += wk.stats.Aborts
				stats.Busy += time.Since(wk.born) - wk.idle
				stats.MaxedBackoffRetries += wk.stats.MaxedBackoffRetries
				mu.Unlock()
			}()
			m, finished := 0, false // m: items popped and not yet retired
			for !stop.Load() {
				m, finished = wk.wl.pop(m, wk.items)
				for m == 0 && !finished && !stop.Load() {
					m, finished = wk.spin()
				}
				if m == 0 {
					return
				}
				if err := wk.run(m); err != nil {
					stop.Store(true)
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	close(errc)
	var errs []error
	for err := range errc {
		errs = append(errs, err)
	}
	return stats, errors.Join(errs...)
}

// txPool recycles transaction shells between iterations; Commit and
// Abort clear the undo/release hooks and the counter tallies (zeroing
// every entry, so no detector or closure reference survives into the
// pool) but keep their slice capacity, so a steady-state worker
// allocates nothing per transaction. GetTx/PutTx expose the pool to benchmarks and tests.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// worker is one executor goroutine's state.
type worker[T any] struct {
	id    int
	wl    *Worklist[T]
	body  BatchBody[T]
	opts  Options
	rng   *rand.Rand
	stats Stats         // this worker's counts, folded into the run's at exit
	born  time.Time     // Stats.Busy is the time since born that is not idle
	idle  time.Duration // measured backoff sleeps and empty-pop spins

	items []T
	txs   []*Tx
	errs  []error
	cache TxCache
}

// spin yields and pops again after an empty pop, counting the whole
// round as idle time.
func (wk *worker[T]) spin() (m int, finished bool) {
	t0 := time.Now()
	runtime.Gosched()
	m, finished = wk.wl.pop(0, wk.items)
	wk.idle += time.Since(t0)
	return m, finished
}

// run processes the m items just popped: one attempt as a group, then
// each conflicted item on its own until it commits.
func (wk *worker[T]) run(m int) error {
	if err := wk.attempt(0, m); err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		if wk.errs[i] == nil {
			continue
		}
		if err := wk.retry(i); err != nil {
			return err
		}
	}
	return nil
}

// retry re-attempts conflicted item i alone, as a batch of one, after
// randomized exponential backoff (to break symmetric livelock) until it
// commits, the run fails, or opts.MaxRetries attempts have conflicted.
func (wk *worker[T]) retry(i int) error {
	backoff := time.Microsecond
	for attempts := 1; wk.errs[i] != nil; attempts++ {
		if wk.opts.MaxRetries > 0 && attempts >= wk.opts.MaxRetries {
			return fmt.Errorf("engine: item retried %d times without committing: %w", attempts, wk.errs[i])
		}
		if backoff >= maxBackoff {
			wk.stats.MaxedBackoffRetries++
		}
		t0 := time.Now()
		time.Sleep(time.Duration(wk.rng.Int64N(int64(backoff) + 1)))
		wk.idle += time.Since(t0)
		if backoff < maxBackoff {
			backoff *= 2
		}
		if err := wk.attempt(i, i+1); err != nil {
			return err
		}
	}
	return nil
}

// attempt runs items[lo:hi] through the body once, each in a fresh
// transaction, and aborts every transaction the body reports failed
// (undo, then release). On return errs[i] is nil for a committed item
// and the conflict for one to retry; any other failure is returned and
// cancels the run.
func (wk *worker[T]) attempt(lo, hi int) error {
	txs, items, errs := wk.txs[lo:hi], wk.items[lo:hi], wk.errs[lo:hi]
	wk.cache.GetBatch(txs)
	for i, tx := range txs {
		tx.SetWorker(wk.id)
		if telemetry.TraceEnabled() {
			tx.SetItem(itemKey(items[i]))
			telemetry.Emit(wk.id, telemetry.EvBegin, tx.ID(), tx.Item(), 0, 0, 0)
		}
		errs[i] = nil
	}
	fatal := wk.body(txs, items, wk.wl, errs)
	committed, conflicts := len(txs), 0
	for i, tx := range txs {
		if errs[i] == nil {
			continue
		}
		tx.Abort()
		committed--
		if IsConflict(errs[i]) {
			conflicts++
		} else if fatal == nil {
			fatal = errs[i]
		}
	}
	wk.cache.PutBatch(txs)
	wk.stats.Committed += uint64(committed)
	wk.stats.Aborts += uint64(conflicts)
	return fatal
}

// itemKey coerces a work item to an int64 trace key; items that are not
// integer-like trace as -1. Called only when event tracing is enabled
// (the interface conversion may allocate).
func itemKey(v any) int64 {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int64:
		return x
	case int32:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case uint:
		return int64(x)
	}
	return -1
}

// RunItems is a convenience wrapper seeding a fresh worklist from a slice.
func RunItems[T any](items []T, opts Options, body Body[T]) (Stats, error) {
	return Run(NewWorklist(items...), opts, body)
}
