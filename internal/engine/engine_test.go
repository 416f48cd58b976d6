package engine

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commlat/internal/telemetry"
)

// releaseFunc is a closure as a Releaser, for tests.
type releaseFunc func()

func (f releaseFunc) ReleaseTx(*Tx) { f() }

// undoFunc is a closure as an Undoer, for tests.
type undoFunc func()

func (f undoFunc) UndoTx(*Tx) { f() }

// namedUndoer is an Undoer value that records its name when it runs.
type namedUndoer struct {
	name  string
	order *[]string
}

func (u *namedUndoer) UndoTx(*Tx) { *u.order = append(*u.order, u.name) }

// TestTxLifecycle: Undoer values undo in LIFO order, and the release
// hooks run after them.
func TestTxLifecycle(t *testing.T) {
	tx := NewTx()
	if tx.Status() != Active {
		t.Fatal("new tx should be active")
	}
	var order []string
	tx.OnUndoer(undoFunc(func() { order = append(order, "undo1") }))
	tx.OnUndoer(&namedUndoer{"undo2", &order})
	tx.OnUndoer(undoFunc(func() { order = append(order, "undo3") }))
	tx.OnUndoer(&namedUndoer{"undo4", &order})
	tx.OnReleaser(releaseFunc(func() { order = append(order, "rel") }))
	tx.Abort()
	if tx.Status() != Aborted {
		t.Fatal("tx should be aborted")
	}
	want := []string{"undo4", "undo3", "undo2", "undo1", "rel"}
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
	tx.OnUndoer(undoFunc(func() { undone = true }))
	tx.OnReleaser(releaseFunc(func() { released = true }))
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

// TestSealedAbortPanics: a sealed transaction's writes have no undo, so
// Abort panics with a message naming it and leaves it active, to commit.
// Commit clears the seal: the pool hands out unsealed transactions.
func TestSealedAbortPanics(t *testing.T) {
	tx := GetTx()
	tx.Seal()
	func() {
		defer func() {
			msg, _ := recover().(string)
			if want := fmt.Sprintf("sealed transaction %d", tx.ID()); !strings.Contains(msg, want) {
				t.Errorf("Abort after Seal panicked with %q, want a message naming %q", msg, want)
			}
		}()
		tx.Abort()
	}()
	if tx.Status() != Active {
		t.Fatalf("a refused abort left status %v, want active", tx.Status())
	}
	tx.Commit()
	PutTx(tx)
	for range 4 {
		tx := GetTx()
		if tx.sealed {
			t.Fatalf("pooled transaction %d comes back sealed", tx.ID())
		}
		tx.Abort()
		PutTx(tx)
	}
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
	err := ConflictBy(0, "lock %s busy", "a")
	if !IsConflict(err) {
		t.Error("ConflictBy should satisfy IsConflict")
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

	// A named holder survives wrapping, and nothing is formatted until
	// the error is read.
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

// pop1 retires done earlier items and pops a single one: the value,
// whether one was taken, and whether the worklist reported termination.
func pop1[T any](wl *Worklist[T], done int) (T, bool, bool) {
	var buf [1]T
	n, finished := wl.pop(done, buf[:])
	return buf[0], n == 1, finished
}

func TestWorklistPushPop(t *testing.T) {
	wl := NewWorklist(1, 2, 3)
	it, ok, done := pop1(wl, 0)
	if !ok || done || it != 1 {
		t.Fatalf("pop = %v %v %v (FIFO: oldest first)", it, ok, done)
	}
	wl.Push(9)
	for _, want := range []int{2, 3, 9} {
		if it, ok, _ := pop1(wl, 1); !ok || it != want {
			t.Fatalf("pop = %v (%v), want %d: a push goes to the back", it, ok, want)
		}
	}
	_, ok, done = pop1(wl, 1)
	if ok || !done {
		t.Fatalf("empty+idle worklist should report done; got ok=%v done=%v", ok, done)
	}
}

func TestWorklistInflightBlocksDone(t *testing.T) {
	wl := NewWorklist(1)
	_, _, _ = pop1(wl, 0)
	if _, ok, done := pop1(wl, 0); ok || done {
		t.Error("in-flight item must keep the list not-done")
	}
	if _, ok, done := pop1(wl, 1); ok || !done {
		t.Error("once its item is retired the list should be finished")
	}
}

func TestWorklistFIFOOrder(t *testing.T) {
	wl := NewWorklist[int]()
	for i := 0; i < 10; i++ {
		wl.Push(i)
	}
	for i := 0; i < 10; i++ {
		it, ok, _ := pop1(wl, 0)
		if !ok || it != i {
			t.Fatalf("pop %d = %v, %v", i, it, ok)
		}
	}
}

func TestWorklistConcurrentBatchesAreFIFORuns(t *testing.T) {
	// Eight workers pop batches of seven from one queue at once. Each
	// batch is taken under one lock acquisition, so whatever the
	// interleaving, every batch must be consecutive items in push order,
	// and every item must be delivered exactly once.
	wl := NewWorklist[int]()
	const N = 20000
	for i := 0; i < N; i++ {
		wl.Push(i)
	}
	var mu sync.Mutex
	var batches [][]int
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int, 7)
			k, done := 0, false
			for {
				if k, done = wl.pop(k, buf); k == 0 {
					if done {
						return
					}
					continue
				}
				b := append([]int(nil), buf[:k]...)
				mu.Lock()
				batches = append(batches, b)
				mu.Unlock()
			}
		}()
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
	// confirm order and contents survive it. Nothing is retired until the
	// last pop, which retires every item at once and must find the list
	// done.
	wl := NewWorklist[int]()
	next := 0
	popped := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 100; i++ {
			wl.Push(next)
			next++
		}
		for i := 0; i < 60; i++ {
			it, ok, _ := pop1(wl, 0)
			if !ok || it != popped {
				t.Fatalf("pop = %v (%v), want %d", it, ok, popped)
			}
			popped++
		}
	}
	for popped < next {
		it, ok, _ := pop1(wl, 0)
		if !ok || it != popped {
			t.Fatalf("drain pop = %v (%v), want %d", it, ok, popped)
		}
		popped++
	}
	if _, ok, done := pop1(wl, popped-1); ok || done {
		t.Error("one item still in flight: the worklist must not be done")
	}
	if _, ok, done := pop1(wl, 1); ok || !done {
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

// TestRunObservesTheSameTransactions: a run starts at an id
// telemetry.Observed picks, so a one-worker run observes the same of its
// transactions however many the process began before it.
func TestRunObservesTheSameTransactions(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		observed := func(skip int) []int {
			for i := 0; i < skip; i++ {
				NewTx().Abort()
			}
			var got []int
			items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
			if _, err := run(items, Options{Workers: 1}, func(tx *Tx, item int, wl *Worklist[int]) error {
				if telemetry.Observed(tx.ID()) {
					got = append(got, item)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return got
		}
		first := observed(0)
		for skip := 1; skip < 8; skip++ {
			if got := observed(skip); fmt.Sprint(got) != fmt.Sprint(first) || len(got) != 3 {
				t.Fatalf("after %d spare transactions the run observed items %v, before %v; want the same 3", skip, got, first)
			}
		}
	})
}

func TestRunRetriesOnConflict(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		var tries atomic.Int64
		stats, err := run([]int{1}, Options{Workers: 2}, func(tx *Tx, item int, wl *Worklist[int]) error {
			if tries.Add(1) < 3 {
				return ConflictBy(0, "try again")
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
				return ConflictBy(0, "first try of %d", item)
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
			tx.OnUndoer(undoFunc(func() { undone.Add(1) }))
			if tries.Add(1) < 4 {
				return ConflictBy(0, "retry")
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
				tx.OnUndoer(undoFunc(func() { undone.Add(1) }))
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
			return ConflictBy(0, "forever")
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
				tx.OnUndoer(undoFunc(func() { order = append(order, "undo") }))
				tx.OnReleaser(releaseFunc(func() { order = append(order, "release") }))
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

// TestRunBodyPanicAfterSeal: a body that panics after Seal still ends the
// run with the panic's error, not a second panic from aborting a sealed
// transaction. Its release hooks run, so nothing it held outlives the
// run; its undo actions do not, since the sealed writes have none.
func TestRunBodyPanicAfterSeal(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		var order []string
		_, err := run([]int{1, 2, 3}, Options{Workers: 1}, func(tx *Tx, item int, wl *Worklist[int]) error {
			if item == 2 {
				tx.OnUndoer(undoFunc(func() { order = append(order, "undo") }))
				tx.OnReleaser(releaseFunc(func() { order = append(order, "release") }))
				tx.Seal()
				panic("kaboom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "engine: iteration body panicked: kaboom") {
			t.Fatalf("run with a body panicking after Seal returned %v", err)
		}
		if len(order) != 1 || order[0] != "release" {
			t.Errorf("hooks ran %v, want [release]", order)
		}
	})
}

func TestRunConcurrentCounterWithLockDiscipline(t *testing.T) {
	// Simulate a guarded shared counter: a CAS-like conflict when the
	// "lock" is held, exercising abort/undo paths under real parallelism.
	var held atomic.Int64
	counter := 0
	var mu sync.Mutex
	incs := NewUndoLog(&mu, func(int) { counter-- })
	items := make([]int, 500)
	stats, err := RunItems(items, Options{Workers: 8}, func(tx *Tx, item int, wl *Worklist[int]) error {
		if !held.CompareAndSwap(0, 1) {
			return ConflictBy(0, "counter busy")
		}
		tx.OnReleaser(releaseFunc(func() { held.Store(0) }))
		mu.Lock()
		counter++
		incs.Record(tx, 1)
		mu.Unlock()
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
					return ConflictBy(0, "periodic")
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
// drawn with the backoff already at maxBackoff.
func backoffSleeps(seed int64, n int) (total time.Duration, maxed uint64) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	backoff := time.Microsecond
	for i := 0; i < n; i++ {
		if backoff >= maxBackoff {
			maxed++
		}
		total += time.Duration(rng.Int64N(int64(backoff) + 1))
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
	return total, maxed
}

// TestRunBusyExcludesBackoff forces 24 conflicts on one item, 17 of them
// retried at the backoff ceiling. The sleeps are a function of the seed,
// so the test replays them: with one worker, whatever the run took
// beyond the sleeps it asked for bounds Busy from above. (RunBatched
// used to time the whole batch, sleeps included.) Two seeds ask for
// different sleeps, so the same check pins the backoff sequence to
// Options.Seed.
func TestRunBusyExcludesBackoff(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		const conflicts = 24
		var slept [2]time.Duration
		for k, seed := range []int64{1, 2} {
			var tries atomic.Int64
			stats, err := run([]int{1}, Options{Workers: 1, Seed: seed},
				func(tx *Tx, item int, wl *Worklist[int]) error {
					if tries.Add(1) <= conflicts {
						return ConflictBy(0, "forced")
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			var maxed uint64
			slept[k], maxed = backoffSleeps(seed, conflicts)
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

// TestRunMaxedBackoffRetries: the backoffs of one item's first seven
// retries, 1 to 64µs, are below maxBackoff, so its 8th and later retries
// are the ones counted at the ceiling.
func TestRunMaxedBackoffRetries(t *testing.T) {
	forEntryPoints(t, func(t *testing.T, run runFunc) {
		for _, tc := range []struct{ conflicts, maxed uint64 }{{7, 0}, {8, 1}, {10, 3}} {
			var tries atomic.Uint64
			stats, err := run([]int{1}, Options{Workers: 1}, func(tx *Tx, item int, wl *Worklist[int]) error {
				if tries.Add(1) <= tc.conflicts {
					return ConflictBy(0, "retry")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Aborts != tc.conflicts || stats.MaxedBackoffRetries != tc.maxed {
				t.Errorf("%d conflicts: Aborts = %d, MaxedBackoffRetries = %d, want %d at the ceiling",
					tc.conflicts, stats.Aborts, stats.MaxedBackoffRetries, tc.maxed)
			}
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
				return ConflictBy(0, "once")
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
