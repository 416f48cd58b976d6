package abslock

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"commlat/internal/engine"
)

func TestMemorySchemeIsReadWriteLocks(t *testing.T) {
	s := memoryScheme()
	if len(s.Modes) != 2 || s.Incompat[0][0] || !s.Incompat[0][1] || !s.Incompat[1][1] {
		t.Fatalf("memory scheme is not read/write locks:\n%s", s.MatrixString())
	}
}

// memStep is one action of a memory-level script: transaction tx reads
// or writes cell id (refused says whether the grant must be refused), or
// commits or aborts.
type memStep struct {
	tx      int
	op      string // "r", "w", "commit" or "abort"
	id      int64
	refused bool
}

// releaseSteps writes cell 1 in n transactions one after another, each
// committing or aborting in turn: every grant needs the release before.
func releaseSteps(n int) []memStep {
	var steps []memStep
	for i := 0; i < n; i++ {
		end := "commit"
		if i%2 == 1 {
			end = "abort"
		}
		steps = append(steps, memStep{tx: i, op: "w", id: 1}, memStep{tx: i, op: end})
	}
	return steps
}

// The single-threaded behaviours of object-granularity memory-level
// detection with visible readers, each a script of grants and refusals
// that must leave no lock behind once every transaction has ended.
func TestMemoryScripts(t *testing.T) {
	for _, c := range []struct {
		name  string
		steps []memStep
	}{
		{"readers share", []memStep{{tx: 0, op: "r", id: 1}, {tx: 1, op: "r", id: 1}}},
		{"write refused against another reader", []memStep{
			{tx: 0, op: "r", id: 1}, {tx: 1, op: "w", id: 1, refused: true},
			{tx: 0, op: "commit"}, {tx: 1, op: "w", id: 1},
		}},
		{"read refused against another writer", []memStep{
			{tx: 0, op: "w", id: 1}, {tx: 1, op: "r", id: 1, refused: true},
			{tx: 1, op: "w", id: 1, refused: true}, {tx: 0, op: "abort"}, {tx: 1, op: "r", id: 1},
		}},
		{"own upgrade and reentrancy", []memStep{
			{tx: 0, op: "r", id: 1}, {tx: 0, op: "w", id: 1}, {tx: 0, op: "r", id: 1},
			{tx: 0, op: "w", id: 1}, {tx: 0, op: "abort"}, {tx: 1, op: "w", id: 1},
		}},
		{"release frees the object", releaseSteps(100)},
		{"visible reader blocks a writer until it releases", []memStep{
			{tx: 0, op: "r", id: 1}, {tx: 1, op: "w", id: 1, refused: true}, {tx: 1, op: "abort"},
			{tx: 2, op: "w", id: 1, refused: true}, {tx: 2, op: "abort"},
			{tx: 0, op: "abort"}, {tx: 3, op: "w", id: 1},
		}},
		{"distinct cells never conflict", []memStep{
			{tx: 0, op: "w", id: 1}, {tx: 1, op: "w", id: 2}, {tx: 2, op: "r", id: 3}, {tx: 1, op: "r", id: 2},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mem := NewMemory()
			txs := map[int]*engine.Tx{}
			for i, s := range c.steps {
				tx := txs[s.tx]
				if tx == nil {
					tx = engine.NewTx()
					txs[s.tx] = tx
				}
				var err error
				switch s.op {
				case "r":
					err = mem.Read(tx, s.id)
				case "w":
					err = mem.Write(tx, s.id)
				case "commit":
					tx.Commit()
					continue
				case "abort":
					tx.Abort()
					continue
				}
				if s.refused && !engine.IsConflict(err) || !s.refused && err != nil {
					t.Fatalf("step %d (%+v): err = %v", i, s, err)
				}
			}
			for _, tx := range txs {
				if tx.Status() == engine.Active {
					tx.Abort()
				}
			}
			if n := mem.mgr.HeldLocks(); n != 0 {
				t.Errorf("%d locks still held after every transaction ended", n)
			}
		})
	}
}

// N workers increment a counter in one cell; the final value must equal
// the number of commits.
func TestMemoryConcurrentCounter(t *testing.T) {
	mem := NewMemory()
	var counter int
	var mu sync.Mutex
	incs := engine.NewUndoLog(&mu, func(int) { counter-- })
	var commits atomic.Int64
	items := make([]int, 800)
	_, err := engine.RunItems(items, engine.Options{Workers: 8}, func(tx *engine.Tx, _ int, _ *engine.Worklist[int]) error {
		if err := mem.Read(tx, 7); err != nil {
			return err
		}
		if err := mem.Write(tx, 7); err != nil {
			return err
		}
		mu.Lock()
		counter++
		incs.Record(tx, 1)
		mu.Unlock()
		commits.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter != 800 || commits.Load() != 800 {
		t.Errorf("counter = %d, commits = %d, want 800", counter, commits.Load())
	}
}

// Writes to cells no other worker touches never conflict.
func TestMemoryConcurrentDisjointCells(t *testing.T) {
	mem := NewMemory()
	var conflicts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				tx := engine.NewTx()
				if err := mem.Write(tx, int64(w*8+r.Intn(8))); err != nil { // per-worker cells
					conflicts.Add(1)
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	if conflicts.Load() != 0 {
		t.Errorf("disjoint writes conflicted %d times", conflicts.Load())
	}
}
