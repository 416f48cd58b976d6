package abslock

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

func newRWSetManager(t *testing.T) *Manager {
	t.Helper()
	s, err := Synthesize(rwSetSpec())
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(s.Reduce(), nil)
}

// pre takes method's pre-execution locks for tx, fetching its handle by
// name: the shorthand the tests use in place of a handle per method.
func pre(m *Manager, tx *engine.Tx, method string, args core.Vec) error {
	return m.Acquire(tx, m.Method(method), args.Slice()...)
}

// cellNeighbour returns the first int from `from` up whose lock (under
// no key function) maps to cell c: another datum of the same cell, which
// a transaction can park on to send c's other datums to the stripes.
func cellNeighbour(ft *fastTable, c *cell, from int64) int64 {
	for ft.cellFor(core.VInt(from).Hash()) != c {
		from++
	}
	return from
}

func TestManagerSameTxReentrant(t *testing.T) {
	m := newRWSetManager(t)
	tx := engine.NewTx()
	defer tx.Abort()
	// A transaction may re-acquire its own locks in any mode.
	if err := pre(m, tx, "contains", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatal(err)
	}
	if err := pre(m, tx, "add", core.MakeVec(core.V(int64(1)))); err != nil {
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
		if err := pre(m, tx, method, key); err != nil {
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
	other := cellNeighbour(m.fast, m.fast.cellFor(core.VInt(1).Hash()), 2)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if err := pre(m, tx1, "contains", key); err != nil {
		t.Fatal(err)
	}
	if err := pre(m, tx2, "add", core.MakeVec(core.V(other))); err != nil {
		t.Fatal(err)
	}
	if err := pre(m, tx1, "add", key); err != nil {
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
	if err := pre(m, tx1, "add", core.MakeVec(core.V(int64(7)))); err != nil {
		t.Fatal(err)
	}
	err := pre(m, tx2, "contains", core.MakeVec(core.V(int64(7))))
	if !engine.IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	var ce *engine.ConflictError
	if !errors.As(err, &ce) || ce.Holder != tx1.ID() {
		t.Errorf("conflict %v names holder %+v, want tx %d", err, ce, tx1.ID())
	}
	// Different element: fine.
	if err := pre(m, tx2, "contains", core.MakeVec(core.V(int64(8)))); err != nil {
		t.Fatal(err)
	}
	// Commit tx1; its locks vanish via the release hook.
	tx1.Commit()
	if err := pre(m, tx2, "add", core.MakeVec(core.V(int64(7)))); err != nil {
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
	if err := pre(m, tx1, "contains", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatal(err)
	}
	if err := pre(m, tx2, "contains", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatalf("two contains on the same key should share: %v", err)
	}
	// But a writer now conflicts with both.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if err := pre(m, tx3, "remove", core.MakeVec(core.V(int64(1)))); !engine.IsConflict(err) {
		t.Fatalf("remove under readers should conflict, got %v", err)
	}
}

func TestManagerInvokeExecGating(t *testing.T) {
	m := newRWSetManager(t)
	tx1 := engine.NewTx()
	defer tx1.Abort()
	if err := pre(m, tx1, "add", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatal(err)
	}
	tx2 := engine.NewTx()
	defer tx2.Abort()
	ran := false
	_, err := m.Invoke(tx2, m.Method("add"), core.MakeVec(core.V(int64(1))), func() core.Value {
		ran = true
		return core.VBool(true)
	})
	if !engine.IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	if ran {
		t.Error("exec must not run when pre-acquisition conflicts")
	}
	ret, err := m.Invoke(tx2, m.Method("add"), core.MakeVec(core.V(int64(2))), func() core.Value { return core.VBool(true) })
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
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `"part"`) {
			t.Errorf("NewManager without the key function: panic %q, want one naming \"part\"", msg)
		}
	}()
	NewManager(s, nil)
}

// TestManagerRefusesUnknownMethod: a name outside the scheme has no
// handle, so a misspelling cannot acquire nothing.
func TestManagerRefusesUnknownMethod(t *testing.T) {
	m := newRWSetManager(t)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "set") || !strings.Contains(msg, `"nosuch"`) {
			t.Errorf("Method(\"nosuch\"): panic %q, want one naming the ADT and the method", msg)
		}
	}()
	m.Method("nosuch")
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
	if err := pre(m, tx1, "add", core.MakeVec(core.V(int64(2)))); err != nil {
		t.Fatal(err)
	}
	// 4 is a different element but the same partition: conflict.
	if err := pre(m, tx2, "add", core.MakeVec(core.V(int64(4)))); !engine.IsConflict(err) {
		t.Fatalf("same-partition add should conflict, got %v", err)
	}
	// 3 is the other partition: allowed.
	if err := pre(m, tx2, "add", core.MakeVec(core.V(int64(3)))); err != nil {
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
				if err := pre(m, tx, "add", core.MakeVec(core.V(el))); err == nil {
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

// TestSpellingsOfOneKeyShareALock: a datum is a value up to ValueEq, so
// the set's write lock on 5 refuses a second writer on 5.0 — and, under
// a key function, on any argument with an equal image — by whichever
// route the two acquisitions reach the table. A transaction parked on
// a neighbour (another datum of the same cell) sends the writers that
// come after it to the stripes.
func TestSpellingsOfOneKeyShareALock(t *testing.T) {
	plain := func() *Manager { return newRWSetManager(t) }
	keyed := func() *Manager {
		part, err := rwSetSpec().PartitionSpec("part")
		if err != nil {
			t.Fatal(err)
		}
		s, err := Synthesize(part)
		if err != nil {
			t.Fatal(err)
		}
		return NewManager(s.Reduce(), map[string]KeyFunc{"part": func(v core.Value) core.Value {
			switch i := v.Int(); {
			case i >= 100:
				return v // the neighbours
			case i%2 == 0:
				return core.VInt(5)
			default:
				return core.VFloat(5)
			}
		}})
	}
	spellings := []struct {
		name          string
		mgr           func() *Manager
		first, second core.Value
	}{
		{"int then float", plain, core.VInt(5), core.VFloat(5)},
		{"float then int", plain, core.VFloat(5), core.VInt(5)},
		{"keyed images 5 and 5.0", keyed, core.VInt(10), core.VInt(11)},
	}
	routes := []struct {
		name                   string
		parkFirst, parkBetween bool
		stripeHolds            int32 // on the cell once the second writer is refused
	}{
		{"cell/cell", false, false, 0},    // the second writer finds the cell owned
		{"cell/stripe", false, true, 1},   // ... finds the parked neighbour's stripe hold on it
		{"stripe/stripe", true, false, 1}, // both writers find the neighbour in the cell
	}
	for _, sp := range spellings {
		for _, rt := range routes {
			m := sp.mgr()
			add := m.Method("add")
			cellOf := func(v core.Value) *cell {
				for i := range add.pre {
					if add.pre[i].Target == TargetArg {
						return m.fast.cellFor(add.pre[i].resolve([]core.Value{v}, nil))
					}
				}
				t.Fatal("add locks no argument")
				return nil
			}
			c := cellOf(sp.first)
			neighbour := int64(100)
			for cellOf(core.VInt(neighbour)) != c {
				neighbour++
			}
			parked, tx1, tx2 := engine.NewTx(), engine.NewTx(), engine.NewTx()
			park := func(now bool) {
				if now {
					if err := m.Acquire(parked, add, core.VInt(neighbour)); err != nil {
						t.Fatalf("%s, %s: parking on %d: %v", sp.name, rt.name, neighbour, err)
					}
				}
			}
			park(rt.parkFirst)
			if err := m.Acquire(tx1, add, sp.first); err != nil {
				t.Fatalf("%s, %s: first writer: %v", sp.name, rt.name, err)
			}
			park(rt.parkBetween)
			err := m.Acquire(tx2, add, sp.second)
			var ce *engine.ConflictError
			if !errors.As(err, &ce) || ce.Holder != tx1.ID() {
				t.Errorf("%s, %s: add(%v) under tx %d's add(%v) = %v, want a conflict naming it",
					sp.name, rt.name, sp.second, tx1.ID(), sp.first, err)
			}
			if fast, n := m.FastHolds(), c.stripe.Load(); fast != 1 || n != rt.stripeHolds {
				t.Errorf("%s, %s: %d cells owned and %d stripe holds on the cell, want 1 and %d: not the route the case names",
					sp.name, rt.name, fast, n, rt.stripeHolds)
			}
			for _, tx := range []*engine.Tx{parked, tx1, tx2} {
				tx.Abort()
			}
			requireDrained(t, sp.name+", "+rt.name, m)
		}
	}
}

// held is a ref-valued datum with a finalizer to watch.
type held struct{ id [16]byte }

// lockRefOnStripe write-locks a fresh *held for tx on the stripe route,
// behind parked's lock on a neighbour, and keeps no reference to it.
//
//go:noinline
func lockRefOnStripe(t *testing.T, m *Manager, parked, tx *engine.Tx, collected chan struct{}) {
	v := &held{id: [16]byte{1}}
	runtime.SetFinalizer(v, func(*held) { close(collected) })
	add := m.Method("add")
	c := m.fast.cellFor(core.V(v).Hash())
	neighbour := cellNeighbour(m.fast, c, 0)
	if err := m.Acquire(parked, add, core.VInt(neighbour)); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(tx, add, core.V(v)); err != nil {
		t.Fatal(err)
	}
	if fast, n := m.FastHolds(), c.stripe.Load(); fast != 1 || n != 1 {
		t.Fatalf("%d cells owned and %d stripe holds: the ref's lock is not on the stripe route", fast, n)
	}
}

// TestManagerRetainsNoDatumValue: a lock names its datum by hash, so
// holding one — on the stripe route, which used to keep the value in the
// table and in the held list — does not keep the datum's value alive.
func TestManagerRetainsNoDatumValue(t *testing.T) {
	m := newRWSetManager(t)
	parked, tx := engine.NewTx(), engine.NewTx()
	defer parked.Abort()
	defer tx.Abort()
	collected := make(chan struct{})
	lockRefOnStripe(t, m, parked, tx, collected)
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			if got := m.HeldLocks(); got != 2 {
				t.Errorf("HeldLocks = %d with the neighbour and the collected ref locked, want 2", got)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the manager pins the value of a datum it holds a lock on")
}

// TestManagerObservesWholeTransactions: the lock paths time a transaction
// only if telemetry.Observed picks its id. One fresh acquisition and a
// commit leave one sig_filter and one commit_release observation for an
// observed transaction, and none for another.
func TestManagerObservesWholeTransactions(t *testing.T) {
	m := newRWSetManager(t)
	add := m.Method("add")
	defer telemetry.DisableLatency()
	for _, observed := range []bool{true, false} {
		telemetry.EnableLatency()
		tx := engine.GetTx()
		for telemetry.Observed(tx.ID()) != observed {
			tx.Abort()
			engine.PutTx(tx)
			tx = engine.GetTx()
		}
		if err := m.Acquire(tx, add, core.VInt(1)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
		want := uint64(0)
		if observed {
			want = 1
		}
		counts := map[string]uint64{}
		for _, st := range telemetry.SnapshotLatency().Stages {
			counts[st.Stage] = st.Count
		}
		if len(counts) != 2*int(want) || counts["sig_filter"] != want || counts["commit_release"] != want {
			t.Errorf("observed=%v: stage observations %v, want %d sig_filter and %d commit_release", observed, counts, want, want)
		}
	}
}
