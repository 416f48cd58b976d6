package abslock

import (
	"errors"
	"sync"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

func newRWSetManager(t *testing.T) *Manager {
	t.Helper()
	s, err := Synthesize(rwSetSpec())
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(s.Reduce(), nil)
}

func TestManagerSameTxReentrant(t *testing.T) {
	m := newRWSetManager(t)
	tx := engine.NewTx()
	defer tx.Abort()
	// A transaction may re-acquire its own locks in any mode.
	if err := m.PreAcquire(tx, "contains", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatal(err)
	}
	if err := m.PreAcquire(tx, "add", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatalf("self-upgrade should not conflict: %v", err)
	}
}

// TestHeldLocksCountsDatumOnce: HeldLocks counts distinct data locks,
// so a read followed by a write of one key by one transaction is one
// lock, whichever paths the two holds sit on.
func TestHeldLocksCountsDatumOnce(t *testing.T) {
	m := newRWSetManager(t)
	tx := engine.NewTx()
	key := core.MakeVec(core.V(int64(1)))
	for _, method := range []string{"contains", "add"} {
		if err := m.PreAcquire(tx, method, key); err != nil {
			t.Fatal(err)
		}
		if got := m.HeldLocks(); got != 1 {
			t.Errorf("HeldLocks = %d after %s(1), want 1", got, method)
		}
	}
	tx.Commit()

	// The same with the two holds on different paths: a foreign lock on a
	// key that shares key 1's cell keeps the upgrade off the fast path, so
	// the write hold lands in the stripe beside the transaction's own
	// fast read hold.
	ft := m.fast
	other := int64(2)
	for ft.cellFor(core.VInt(other).Hash()) != ft.cellFor(core.VInt(1).Hash()) {
		other++
	}
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if err := m.PreAcquire(tx1, "contains", key); err != nil {
		t.Fatal(err)
	}
	if err := m.PreAcquire(tx2, "add", core.MakeVec(core.V(other))); err != nil {
		t.Fatal(err)
	}
	if err := m.PreAcquire(tx1, "add", key); err != nil {
		t.Fatal(err)
	}
	if fast := m.FastHolds(); fast != 1 {
		t.Fatalf("FastHolds = %d, want 1: the scenario needs key %d and the upgrade on the stripes", fast, other)
	}
	if got := m.HeldLocks(); got != 2 {
		t.Errorf("HeldLocks = %d with keys 1 and %d locked, want 2", got, other)
	}
	tx1.Commit()
	tx2.Commit()
	if got := m.HeldLocks(); got != 0 {
		t.Errorf("HeldLocks = %d after release, want 0", got)
	}
}

func TestManagerConflictAndRelease(t *testing.T) {
	m := newRWSetManager(t)
	tx1 := engine.NewTx()
	tx2 := engine.NewTx()
	if err := m.PreAcquire(tx1, "add", core.MakeVec(core.V(int64(7)))); err != nil {
		t.Fatal(err)
	}
	err := m.PreAcquire(tx2, "contains", core.MakeVec(core.V(int64(7))))
	if !engine.IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	var ce *engine.ConflictError
	if !errors.As(err, &ce) || ce.Holder != tx1.ID() {
		t.Errorf("conflict %v names holder %+v, want tx %d", err, ce, tx1.ID())
	}
	// Different element: fine.
	if err := m.PreAcquire(tx2, "contains", core.MakeVec(core.V(int64(8)))); err != nil {
		t.Fatal(err)
	}
	// Commit tx1; its locks vanish via the release hook.
	tx1.Commit()
	if err := m.PreAcquire(tx2, "add", core.MakeVec(core.V(int64(7)))); err != nil {
		t.Fatalf("lock should be free after commit: %v", err)
	}
	tx2.Abort()
	if got := m.HeldLocks(); got != 0 {
		t.Errorf("HeldLocks = %d after both txs ended, want 0", got)
	}
}

func TestManagerReadersShare(t *testing.T) {
	m := newRWSetManager(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := m.PreAcquire(tx1, "contains", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatal(err)
	}
	if err := m.PreAcquire(tx2, "contains", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatalf("two contains on the same key should share: %v", err)
	}
	// But a writer now conflicts with both.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if err := m.PreAcquire(tx3, "remove", core.MakeVec(core.V(int64(1)))); !engine.IsConflict(err) {
		t.Fatalf("remove under readers should conflict, got %v", err)
	}
}

func TestManagerInvokeExecGating(t *testing.T) {
	m := newRWSetManager(t)
	tx1 := engine.NewTx()
	defer tx1.Abort()
	if err := m.PreAcquire(tx1, "add", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatal(err)
	}
	tx2 := engine.NewTx()
	defer tx2.Abort()
	ran := false
	_, err := m.Invoke(tx2, "add", core.MakeVec(core.V(int64(1))), func() core.Value {
		ran = true
		return core.VBool(true)
	})
	if !engine.IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	if ran {
		t.Error("exec must not run when pre-acquisition conflicts")
	}
	ret, err := m.Invoke(tx2, "add", core.MakeVec(core.V(int64(2))), func() core.Value { return core.VBool(true) })
	if err != nil || ret != core.VBool(true) {
		t.Fatalf("Invoke = %v, %v", ret, err)
	}
}

func TestManagerMissingKeyFunc(t *testing.T) {
	part, err := rwSetSpec().PartitionSpec("part")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Synthesize(part)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(s, nil)
	tx := engine.NewTx()
	defer tx.Abort()
	if err := m.PreAcquire(tx, "add", core.MakeVec(core.V(int64(1)))); err == nil || engine.IsConflict(err) {
		t.Errorf("missing key function should be a hard error, got %v", err)
	}
}

func TestManagerPartitionSharing(t *testing.T) {
	part, err := rwSetSpec().PartitionSpec("part")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Synthesize(part)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(s.Reduce(), map[string]KeyFunc{
		"part": func(v core.Value) core.Value { return core.VInt(v.Int() % 2) },
	})
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := m.PreAcquire(tx1, "add", core.MakeVec(core.V(int64(2)))); err != nil {
		t.Fatal(err)
	}
	// 4 is a different element but the same partition: conflict.
	if err := m.PreAcquire(tx2, "add", core.MakeVec(core.V(int64(4)))); !engine.IsConflict(err) {
		t.Fatalf("same-partition add should conflict, got %v", err)
	}
	// 3 is the other partition: allowed.
	if err := m.PreAcquire(tx2, "add", core.MakeVec(core.V(int64(3)))); err != nil {
		t.Fatal(err)
	}
}

func TestManagerConcurrentStress(t *testing.T) {
	// Hammer the manager from many goroutines; the race detector and the
	// mutual-exclusion invariant (never two writers on one element) do
	// the checking.
	m := newRWSetManager(t)
	var owners sync.Map // element -> tx id currently holding a write lock
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				tx := engine.NewTx()
				el := int64((seed*31 + int64(i)) % 5)
				if err := m.PreAcquire(tx, "add", core.MakeVec(core.V(el))); err == nil {
					if prev, loaded := owners.LoadOrStore(el, tx.ID()); loaded {
						t.Errorf("two writers on %d: %v and %d", el, prev, tx.ID())
					}
					owners.Delete(el)
				}
				tx.Abort()
			}
		}(int64(w))
	}
	wg.Wait()
	if m.HeldLocks() != 0 {
		t.Errorf("locks leaked: %d", m.HeldLocks())
	}
}
