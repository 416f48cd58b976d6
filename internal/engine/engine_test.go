package engine

import (
	"errors"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commlat/internal/telemetry"
)

func TestTxLifecycle(t *testing.T) {
	tx := NewTx()
	if tx.Status() != Active {
		t.Fatal("new tx should be active")
	}
	var order []string
	tx.OnUndo(func() { order = append(order, "undo1") })
	tx.OnUndo(func() { order = append(order, "undo2") })
	tx.OnRelease(func() { order = append(order, "rel") })
	tx.Abort()
	if tx.Status() != Aborted {
		t.Fatal("tx should be aborted")
	}
	want := []string{"undo2", "undo1", "rel"}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
}

func TestTxCommitSkipsUndo(t *testing.T) {
	tx := NewTx()
	undone, released := false, false
	tx.OnUndo(func() { undone = true })
	tx.OnRelease(func() { released = true })
	tx.Commit()
	if undone {
		t.Error("commit must not run undo actions")
	}
	if !released {
		t.Error("commit must run release hooks")
	}
}

func TestTxDoubleEndPanics(t *testing.T) {
	tx := NewTx()
	tx.Commit()
	defer func() {
		if recover() == nil {
			t.Error("second end should panic")
		}
	}()
	tx.Abort()
}

func TestTxIDsUnique(t *testing.T) {
	seen := map[uint64]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := NewTx().ID()
			mu.Lock()
			if seen[id] {
				t.Errorf("duplicate tx id %d", id)
			}
			seen[id] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
}

func TestConflictError(t *testing.T) {
	err := Conflict("lock %s busy", "a")
	if !IsConflict(err) {
		t.Error("Conflict should satisfy IsConflict")
	}
	if !errors.Is(err, ErrConflict) {
		t.Error("errors.Is should match ErrConflict")
	}
	if IsConflict(errors.New("other")) {
		t.Error("unrelated error must not be a conflict")
	}
	if got, want := err.Error(), "engine: conflict: lock a busy"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}

	// The typed form names the holder, survives wrapping, and formats
	// nothing until it is read.
	var reads countingStringer
	err = ConflictBy(42, "node %s is held", &reads)
	if reads != 0 {
		t.Errorf("constructing the conflict formatted its arguments %d times", reads)
	}
	var ce *ConflictError
	if wrapped := errors.Join(errors.New("discharge 7"), err); !errors.As(wrapped, &ce) || ce.Holder != 42 || !IsConflict(wrapped) {
		t.Fatalf("errors.As through a wrapper: %v, %+v", wrapped, ce)
	}
	if got, want := ce.Error(), "engine: conflict: node n is held (tx 42)"; got != want || reads != 1 {
		t.Errorf("Error() = %q after %d reads, want %q after 1", got, reads, want)
	}
}

type countingStringer int

func (c *countingStringer) String() string { *c++; return "n" }

// pop1 pops a single item: the value, whether one was taken, and
// whether the worklist reported termination.
func pop1[T any](wl *Worklist[T]) (T, bool, bool) {
	var buf [1]T
	n, finished := wl.PopBatch(buf[:])
	return buf[0], n == 1, finished
}

func TestWorklistPushPop(t *testing.T) {
	wl := NewWorklist(1, 2, 3)
	if wl.Len() != 3 {
		t.Fatalf("Len = %d", wl.Len())
	}
	it, ok, done := pop1(wl)
	if !ok || done || it != 1 {
		t.Fatalf("pop = %v %v %v (FIFO: oldest first)", it, ok, done)
	}
	wl.Push(9)
	if wl.Len() != 3 {
		t.Fatalf("Len after push = %d", wl.Len())
	}
	wl.doneN(1)
	for i := 0; i < 3; i++ {
		if _, ok, _ := pop1(wl); !ok {
			t.Fatal("expected item")
		}
		wl.doneN(1)
	}
	_, ok, done = pop1(wl)
	if ok || !done {
		t.Fatalf("empty+idle worklist should report done; got ok=%v done=%v", ok, done)
	}
}

func TestWorklistShardCount(t *testing.T) {
	if n := len(NewWorklist[int]().s.shards); n < 2 || n&(n-1) != 0 {
		t.Fatalf("shard count %d, want a power of two >= 2", n)
	}
}

func TestWorklistInflightBlocksDone(t *testing.T) {
	wl := NewWorklist(1)
	_, _, _ = pop1(wl)
	if _, ok, done := pop1(wl); ok || done {
		t.Error("in-flight item must keep the list not-done")
	}
	wl.doneN(1)
	if _, ok, done := pop1(wl); ok || !done {
		t.Error("after done the list should be finished")
	}
}

func TestWorklistFIFOOrder(t *testing.T) {
	wl := NewWorklist[int]()
	for i := 0; i < 10; i++ {
		wl.Push(i)
	}
	for i := 0; i < 10; i++ {
		it, ok, _ := pop1(wl)
		if !ok || it != i {
			t.Fatalf("pop %d = %v, %v", i, it, ok)
		}
		wl.doneN(1)
	}
}

func TestWorklistBatchStealsPreserveShardFIFO(t *testing.T) {
	// Regression guard for the shard-count snapshot: every item sits in
	// shard 0 while views with home indexes far beyond any plausible
	// GOMAXPROCS snapshot steal batches from it concurrently. PopBatch
	// promises each batch is a contiguous run of one shard's queue, so
	// whatever the interleaving, every stolen batch must be consecutive
	// items in seed order, delivered exactly once.
	wl := NewWorklist[int]()
	const N = 20000
	for i := 0; i < N; i++ {
		wl.Push(i) // home handle: everything lands on shard 0
	}
	var mu sync.Mutex
	var batches [][]int
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := wl.forWorker(w + 1000) // larger than any shard snapshot
			buf := make([]int, 7)
			for {
				k, done := v.PopBatch(buf)
				if k == 0 {
					if done {
						return
					}
					continue
				}
				b := append([]int(nil), buf[:k]...)
				mu.Lock()
				batches = append(batches, b)
				mu.Unlock()
				v.doneN(k)
			}
		}(w)
	}
	wg.Wait()
	seen := make([]bool, N)
	for _, b := range batches {
		for k := 1; k < len(b); k++ {
			if b[k] != b[k-1]+1 {
				t.Fatalf("batch %v is not a contiguous FIFO run", b)
			}
		}
		for _, it := range b {
			if seen[it] {
				t.Fatalf("item %d delivered twice", it)
			}
			seen[it] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("item %d lost", i)
		}
	}
}

func TestWorklistCompaction(t *testing.T) {
	// Push and pop enough items to trigger the head-compaction path and
	// confirm order and contents survive it.
	wl := NewWorklist[int]()
	next := 0
	popped := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 100; i++ {
			wl.Push(next)
			next++
		}
		for i := 0; i < 60; i++ {
			it, ok, _ := pop1(wl)
			if !ok || it != popped {
				t.Fatalf("pop = %v (%v), want %d", it, ok, popped)
			}
			popped++
			wl.doneN(1)
		}
	}
	if wl.Len() != next-popped {
		t.Fatalf("Len = %d, want %d", wl.Len(), next-popped)
	}
	for popped < next {
		it, ok, _ := pop1(wl)
		if !ok || it != popped {
			t.Fatalf("drain pop = %v (%v), want %d", it, ok, popped)
		}
		popped++
		wl.doneN(1)
	}
	if _, ok, done := pop1(wl); ok || !done {
		t.Error("worklist should be done")
	}
}

// runFunc is an executor entry point in Run's shape.
type runFunc func(items []int, opts Options, body Body[int]) (Stats, error)

// entryPoints are the two ways into the executor. RunItemsBatched takes
// the per-item body through the BatchBody contract — commit on success,
// leave the transaction active with the error otherwise — so every case
// below also covers the group attempt and the per-item retry pass.
var entryPoints = []struct {
	name string
	run  runFunc
}{
	{"Run", RunItems[int]},
	{"RunBatched", func(items []int, opts Options, body Body[int]) (Stats, error) {
		return RunItemsBatched(items, opts, func(txs []*Tx, items []int, wl *Worklist[int], errs []error) error {
			for i, tx := range txs {
				if errs[i] = body(tx, items[i], wl); errs[i] == nil {
					tx.Commit()
				}
			}
			return nil
		})
	}},
}

func forEntryPoints(t *testing.T, f func(t *testing.T, run runFunc)) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) { f(t, ep.run) })
	}
}

func TestRunCountsCommits(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		var sum atomic.Int64
		items := make([]int, 100)
		for i := range items {
			items[i] = i
		}
		stats, err := run(items, Options{Workers: 4}, func(tx *Tx, item int, wl *Worklist[int]) error {
			sum.Add(int64(item))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Committed != 100 {
			t.Errorf("Committed = %d, want 100", stats.Committed)
		}
		if sum.Load() != 99*100/2 {
			t.Errorf("sum = %d", sum.Load())
		}
	})
}

func TestRunRetriesOnConflict(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		var tries atomic.Int64
		stats, err := run([]int{1}, Options{Workers: 2}, func(tx *Tx, item int, wl *Worklist[int]) error {
			if tries.Add(1) < 3 {
				return Conflict("try again")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Committed != 1 || stats.Aborts != 2 {
			t.Errorf("stats = %+v, want 1 commit 2 aborts", stats)
		}
		if stats.AbortRatio() < 0.6 || stats.AbortRatio() > 0.7 {
			t.Errorf("AbortRatio = %v, want 2/3", stats.AbortRatio())
		}
	})
}

// TestRunRetriesOnlyConflictedItems runs a group in which every third
// item conflicts once: the rest commit on the group attempt and are not
// run again.
func TestRunRetriesOnlyConflictedItems(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		items := make([]int, 30)
		for i := range items {
			items[i] = i
		}
		var tries [30]atomic.Int64
		stats, err := run(items, Options{Workers: 1}, func(tx *Tx, item int, wl *Worklist[int]) error {
			if tries[item].Add(1) == 1 && item%3 == 0 {
				return Conflict("first try of %d", item)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Committed != 30 || stats.Aborts != 10 {
			t.Errorf("stats = %+v, want 30 commits 10 aborts", stats)
		}
		for i := range tries {
			want := int64(1)
			if i%3 == 0 {
				want = 2
			}
			if got := tries[i].Load(); got != want {
				t.Errorf("item %d ran %d times, want %d", i, got, want)
			}
		}
	})
}

func TestRunUndoRunsPerAbort(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		var undone atomic.Int64
		var tries atomic.Int64
		_, err := run([]int{1}, Options{Workers: 1}, func(tx *Tx, item int, wl *Worklist[int]) error {
			tx.OnUndo(func() { undone.Add(1) })
			if tries.Add(1) < 4 {
				return Conflict("retry")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if undone.Load() != 3 {
			t.Errorf("undo ran %d times, want 3 (one per abort)", undone.Load())
		}
	})
}

func TestRunPropagatesFatalError(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		boom := errors.New("boom")
		var undone atomic.Int64
		_, err := run([]int{1, 2, 3, 4}, Options{Workers: 2}, func(tx *Tx, item int, wl *Worklist[int]) error {
			if item == 3 {
				tx.OnUndo(func() { undone.Add(1) })
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
		if undone.Load() != 1 {
			t.Errorf("undo ran %d times, want 1: the failed item aborts", undone.Load())
		}
	})
}

func TestRunMaxRetries(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		var tries atomic.Int64
		stats, err := run([]int{1}, Options{Workers: 1, MaxRetries: 5}, func(tx *Tx, item int, wl *Worklist[int]) error {
			tries.Add(1)
			return Conflict("forever")
		})
		if err == nil || !IsConflict(err) {
			t.Errorf("err = %v, want the livelock-guard error wrapping the conflict", err)
		}
		if tries.Load() != 5 || stats.Aborts != 5 {
			t.Errorf("tries = %d, aborts = %d, want 5 attempts", tries.Load(), stats.Aborts)
		}
	})
}

func TestRunDynamicWork(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		// Each item < 64 pushes two children; count total commits = 127.
		var n atomic.Int64
		stats, err := run([]int{1}, Options{Workers: 4}, func(tx *Tx, item int, wl *Worklist[int]) error {
			n.Add(1)
			if item < 64 {
				wl.Push(item*2, item*2+1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Committed != 127 || n.Load() != 127 {
			t.Errorf("committed %d (n=%d), want 127", stats.Committed, n.Load())
		}
	})
}

// TestRunBodyPanic: a panicking body cancels the run with an error that
// carries the panic value and stack, after the transaction it was
// running has been aborted — undo first, then release.
func TestRunBodyPanic(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		var order []string
		_, err := run([]int{1, 2, 3}, Options{Workers: 1}, func(tx *Tx, item int, wl *Worklist[int]) error {
			if item == 2 {
				tx.OnUndo(func() { order = append(order, "undo") })
				tx.OnRelease(func() { order = append(order, "release") })
				panic("kaboom")
			}
			return nil
		})
		if err == nil {
			t.Fatal("run with a panicking body returned no error")
		}
		for _, want := range []string{"kaboom", "TestRunBodyPanic", "goroutine"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error lacks %q:\n%v", want, err)
			}
		}
		if len(order) != 2 || order[0] != "undo" || order[1] != "release" {
			t.Errorf("hooks ran %v, want [undo release]", order)
		}
	})
}

func TestRunConcurrentCounterWithLockDiscipline(t *testing.T) {
	// Simulate a guarded shared counter: a CAS-like conflict when the
	// "lock" is held, exercising abort/undo paths under real parallelism.
	var held atomic.Int64
	counter := 0
	var mu sync.Mutex
	items := make([]int, 500)
	stats, err := RunItems(items, Options{Workers: 8}, func(tx *Tx, item int, wl *Worklist[int]) error {
		if !held.CompareAndSwap(0, 1) {
			return Conflict("counter busy")
		}
		tx.OnRelease(func() { held.Store(0) })
		mu.Lock()
		counter++
		mu.Unlock()
		tx.OnUndo(func() {
			mu.Lock()
			counter--
			mu.Unlock()
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter != 500 {
		t.Errorf("counter = %d, want 500 (commits %d aborts %d)", counter, stats.Committed, stats.Aborts)
	}
}

func TestStatsAbortRatioZero(t *testing.T) {
	if (Stats{}).AbortRatio() != 0 {
		t.Error("empty stats ratio should be 0")
	}
}

func TestStatusString(t *testing.T) {
	if Active.String() != "active" || Committed.String() != "committed" || Aborted.String() != "aborted" {
		t.Error("status labels")
	}
}

func TestRunSeedReproducibleBackoff(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		// Identical seeds must drive identical backoff decisions; check the
		// run completes and commits deterministically under forced
		// conflicts (TestRunBusyExcludesBackoff replays the sleeps).
		for _, seed := range []int64{1, 2} {
			var tries atomic.Int64
			stats, err := run([]int{1, 2, 3}, Options{Workers: 1, Seed: seed}, func(tx *Tx, item int, wl *Worklist[int]) error {
				if tries.Add(1)%3 == 0 {
					return Conflict("periodic")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Committed != 3 {
				t.Errorf("seed %d: committed %d", seed, stats.Committed)
			}
		}
	})
}

// backoffSleeps replays worker 0's backoff decisions for an item that
// conflicts n times: the sleeps requested, summed, and how many were
// drawn with the backoff already at its ceiling.
func backoffSleeps(seed int64, n int, ceiling time.Duration) (total time.Duration, maxed uint64) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	backoff := time.Microsecond
	for i := 0; i < n; i++ {
		if backoff >= ceiling {
			maxed++
		}
		total += time.Duration(rng.Int64N(int64(backoff) + 1))
		if backoff < ceiling {
			backoff *= 2
		}
	}
	return total, maxed
}

// TestRunBusyExcludesBackoff forces 24 conflicts on one item with a 2ms
// backoff ceiling. The sleeps are a function of the seed, so the test
// replays them: with one worker, whatever the run took beyond the sleeps
// it asked for bounds Busy from above. (RunBatched used to time the
// whole batch, sleeps included.) Two seeds ask for different sleeps, so
// the same check pins the backoff sequence to Options.Seed.
func TestRunBusyExcludesBackoff(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		const conflicts, ceiling = 24, 2 * time.Millisecond
		var slept [2]time.Duration
		for k, seed := range []int64{1, 2} {
			var tries atomic.Int64
			stats, err := run([]int{1}, Options{Workers: 1, Seed: seed, MaxBackoff: ceiling},
				func(tx *Tx, item int, wl *Worklist[int]) error {
					if tries.Add(1) <= conflicts {
						return Conflict("forced")
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			var maxed uint64
			slept[k], maxed = backoffSleeps(seed, conflicts, ceiling)
			if stats.Committed != 1 || stats.Aborts != conflicts || stats.MaxedBackoffRetries != maxed {
				t.Errorf("seed %d: stats = %+v, want 1 commit, %d aborts, %d at the ceiling", seed, stats, conflicts, maxed)
			}
			if stats.Elapsed < slept[k] {
				t.Errorf("seed %d: Elapsed = %v is less than the %v of backoff the seed asks for", seed, stats.Elapsed, slept[k])
			}
			if stats.Busy > stats.Elapsed-slept[k] {
				t.Errorf("seed %d: Busy = %v includes backoff: Elapsed = %v of which %v asleep", seed, stats.Busy, stats.Elapsed, slept[k])
			}
		}
		if slept[0] == slept[1] {
			t.Errorf("seeds 1 and 2 ask for the same backoff %v", slept[0])
		}
	})
}

func TestRunBusyTime(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		stats, err := run([]int{1, 2, 3, 4}, Options{Workers: 2}, func(tx *Tx, item int, wl *Worklist[int]) error {
			time.Sleep(time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// 4 iterations × 1ms body each; Busy sums across workers.
		if stats.Busy < 4*time.Millisecond {
			t.Errorf("Busy = %v, want >= 4ms", stats.Busy)
		}
		if stats.Busy > 10*stats.Elapsed {
			t.Errorf("Busy = %v implausibly large vs Elapsed = %v", stats.Busy, stats.Elapsed)
		}
	})
}

func TestRunMaxedBackoffRetries(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		// With MaxBackoff equal to the initial 1µs backoff, every retry
		// happens at the ceiling, so MaxedBackoffRetries == Aborts
		// deterministically.
		var tries atomic.Int64
		stats, err := run([]int{1}, Options{Workers: 1, MaxBackoff: time.Microsecond}, func(tx *Tx, item int, wl *Worklist[int]) error {
			if tries.Add(1) < 5 {
				return Conflict("retry")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Aborts != 4 {
			t.Fatalf("Aborts = %d, want 4", stats.Aborts)
		}
		if stats.MaxedBackoffRetries != 4 {
			t.Errorf("MaxedBackoffRetries = %d, want 4", stats.MaxedBackoffRetries)
		}
		// With a generous ceiling, the first few retries are below it.
		tries.Store(0)
		stats, err = run([]int{1}, Options{Workers: 1, MaxBackoff: time.Second}, func(tx *Tx, item int, wl *Worklist[int]) error {
			if tries.Add(1) < 4 {
				return Conflict("retry")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.MaxedBackoffRetries != 0 {
			t.Errorf("MaxedBackoffRetries = %d, want 0 under a high ceiling", stats.MaxedBackoffRetries)
		}
	})
}

func TestRunEmitsTraceEvents(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		telemetry.EnableTrace(1024, 1)
		defer telemetry.DisableTrace()
		var tries atomic.Int64
		_, err := run([]int{7}, Options{Workers: 1}, func(tx *Tx, item int, wl *Worklist[int]) error {
			if tries.Add(1) < 2 {
				return Conflict("once")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var begins, commits, aborts int
		for _, e := range telemetry.TraceEvents() {
			switch e.Kind {
			case telemetry.EvBegin:
				begins++
				if e.Item != 7 {
					t.Errorf("begin item = %d, want 7", e.Item)
				}
			case telemetry.EvCommit:
				commits++
			case telemetry.EvAbort:
				aborts++
			}
		}
		if begins != 2 || commits != 1 || aborts != 1 {
			t.Errorf("begins/commits/aborts = %d/%d/%d, want 2/1/1", begins, commits, aborts)
		}
	})
}
