package stm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"commlat/internal/engine"
)

func TestReadersShare(t *testing.T) {
	var o Obj
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := o.Read(tx1); err != nil {
		t.Fatalf("Read = %v", err)
	}
	if err := o.Read(tx2); err != nil {
		t.Fatalf("second reader should share: %v", err)
	}
}

func TestWriteConflictsWithReader(t *testing.T) {
	var o Obj
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx2.Abort()
	if err := o.Read(tx1); err != nil {
		t.Fatal(err)
	}
	if err := o.Write(tx2); !engine.IsConflict(err) {
		t.Fatalf("write under reader should conflict, got %v", err)
	}
	tx1.Commit()
	if err := o.Write(tx2); err != nil {
		t.Fatalf("write after reader commit: %v", err)
	}
}

func TestReadConflictsWithWriter(t *testing.T) {
	var o Obj
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx2.Abort()
	if err := o.Write(tx1); err != nil {
		t.Fatal(err)
	}
	if err := o.Read(tx2); !engine.IsConflict(err) {
		t.Fatalf("read under writer should conflict, got %v", err)
	}
	if err := o.Write(tx2); !engine.IsConflict(err) {
		t.Fatalf("write under writer should conflict, got %v", err)
	}
	tx1.Abort()
	if err := o.Read(tx2); err != nil {
		t.Fatalf("read after writer abort: %v", err)
	}
}

func TestOwnUpgradeAndReentrancy(t *testing.T) {
	var o Obj
	tx := engine.NewTx()
	if err := o.Read(tx); err != nil {
		t.Fatal(err)
	}
	if err := o.Write(tx); err != nil {
		t.Fatalf("self upgrade failed: %v", err)
	}
	if err := o.Read(tx); err != nil {
		t.Fatalf("read own write: %v", err)
	}
	if err := o.Write(tx); err != nil {
		t.Fatalf("re-write failed: %v", err)
	}
	tx.Abort()
	other := engine.NewTx()
	defer other.Abort()
	if err := o.Write(other); err != nil {
		t.Errorf("object still held after the upgrader aborted: %v", err)
	}
}

func TestReleaseFreesObject(t *testing.T) {
	var o Obj
	for i := 0; i < 100; i++ {
		tx := engine.NewTx()
		if err := o.Write(tx); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if i%2 == 0 {
			tx.Commit()
		} else {
			tx.Abort()
		}
	}
}

func TestConcurrentCounter(t *testing.T) {
	// N workers increment a counter guarded by one object; the final
	// value must equal the number of commits.
	var o Obj
	var counter int
	var commits atomic.Int64
	items := make([]int, 800)
	_, err := engine.RunItems(items, engine.Options{Workers: 8}, func(tx *engine.Tx, _ int, _ *engine.Worklist[int]) error {
		if err := o.Read(tx); err != nil {
			return err
		}
		if err := o.Write(tx); err != nil {
			return err
		}
		counter++
		tx.OnUndo(func() { counter-- })
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

func TestConcurrentDisjointVars(t *testing.T) {
	// Writes to distinct objects never conflict.
	objs := make([]Obj, 64)
	var conflicts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				tx := engine.NewTx()
				o := &objs[w*8+r.Intn(8)] // per-worker slice of objects
				if err := o.Write(tx); err != nil {
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

func TestVisibleReaderBlocksWriterUntilRelease(t *testing.T) {
	var o Obj
	tx1 := engine.NewTx()
	if err := o.Read(tx1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Spin until the writer gets in (after tx1 aborts): the test
		// finishes only if the abort released the read.
		for {
			tx := engine.NewTx()
			if err := o.Write(tx); err == nil {
				tx.Commit()
				return
			}
			tx.Abort()
		}
	}()
	tx1.Abort()
	<-done
}
