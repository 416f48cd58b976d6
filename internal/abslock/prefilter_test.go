package abslock

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// TestFastPathDisjointAccess checks the prefilter's reason for existing:
// acquisitions on distinct datums admit without the table mutex (visible
// as live fast holds), conflicts against fast holds are still detected
// from the stripe path, and everything drains on release.
func TestFastPathDisjointAccess(t *testing.T) {
	m := newRWSetManager(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if err := pre(m, tx1, "add", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatal(err)
	}
	if err := pre(m, tx2, "add", core.MakeVec(core.V(int64(2)))); err != nil {
		t.Fatal(err)
	}
	if got := m.FastHolds(); got == 0 {
		t.Fatalf("disjoint writers should hold fast-path locks, FastHolds = %d", got)
	}
	// A third transaction colliding with tx1's fast hold must conflict
	// even though tx1 never touched a stripe.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if err := pre(m, tx3, "contains", core.MakeVec(core.V(int64(1)))); !engine.IsConflict(err) {
		t.Fatalf("reader under a fast-held writer should conflict, got %v", err)
	}
	tx1.Commit()
	tx2.Abort()
	if got := m.FastHolds(); got != 0 {
		t.Errorf("FastHolds = %d after release, want 0", got)
	}
	// The datum is free again — and free for the fast path.
	tx4 := engine.NewTx()
	defer tx4.Abort()
	if err := pre(m, tx4, "add", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatalf("lock should be free after commit: %v", err)
	}
}

// TestFastPathSharedKeyFallsBack checks that compatible sharing of one
// datum never fast-admits: the second reader must find the first one's
// cell owned and take the stripe path, where read/read still shares.
func TestFastPathSharedKeyFallsBack(t *testing.T) {
	m := newRWSetManager(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := pre(m, tx1, "contains", core.MakeVec(core.V(int64(5)))); err != nil {
		t.Fatal(err)
	}
	fastBefore := m.FastHolds()
	if err := pre(m, tx2, "contains", core.MakeVec(core.V(int64(5)))); err != nil {
		t.Fatalf("readers should share: %v", err)
	}
	if got := m.FastHolds(); got != fastBefore {
		t.Errorf("second reader of the same key must not fast-admit: FastHolds %d -> %d", fastBefore, got)
	}
	// Both directions of the fast/stripe split are now live on one key;
	// a writer must conflict with the stripe-held read.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if err := pre(m, tx3, "remove", core.MakeVec(core.V(int64(5)))); !engine.IsConflict(err) {
		t.Fatalf("writer under readers should conflict, got %v", err)
	}
}

// TestFastPathStripeFirst covers the reverse interleaving: a stripe-held
// lock (forced by an earlier fallback) must make later acquirers of the
// same datum fall off the fast path and conflict in the stripe.
func TestFastPathStripeFirst(t *testing.T) {
	m := newRWSetManager(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx2.Abort()
	// Two reads drive tx2's hold onto the stripe path.
	if err := pre(m, tx1, "contains", core.MakeVec(core.V(int64(9)))); err != nil {
		t.Fatal(err)
	}
	if err := pre(m, tx2, "contains", core.MakeVec(core.V(int64(9)))); err != nil {
		t.Fatal(err)
	}
	tx1.Abort()
	// tx2's stripe hold alone now guards the datum; the cell's stripe
	// count must keep writers off the fast path and into the conflict.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if err := pre(m, tx3, "add", core.MakeVec(core.V(int64(9)))); !engine.IsConflict(err) {
		t.Fatalf("writer under a stripe-held read should conflict, got %v", err)
	}
}

// TestFastPathCellCollision shrinks the fast table to two cells, so that
// most of eight distinct datums map to a cell another datum occupies, and
// checks that those overflow to the stripe route without changing any
// verdict, and that mixed fast/stripe holds drain.
func TestFastPathCellCollision(t *testing.T) {
	m := newRWSetManager(t)
	m.fast = newFastTable(2)

	const n = 8
	txs := make([]*engine.Tx, n)
	for i := range txs {
		txs[i] = engine.NewTx()
		if err := pre(m, txs[i], "add", core.MakeVec(core.V(int64(i)))); err != nil {
			t.Fatalf("disjoint add %d: %v", i, err)
		}
	}
	if got := m.FastHolds(); got == 0 || got > 2 {
		t.Fatalf("FastHolds = %d with a 2-cell table", got)
	}
	if got := m.HeldLocks(); got != n {
		t.Errorf("HeldLocks = %d with %d keys locked", got, n)
	}
	// Every datum is guarded regardless of which path holds it.
	for i := 0; i < n; i++ {
		probe := engine.NewTx()
		if err := pre(m, probe, "contains", core.MakeVec(core.V(int64(i)))); !engine.IsConflict(err) {
			t.Fatalf("key %d unguarded after a cell collision: %v", i, err)
		}
		probe.Abort()
	}
	for _, tx := range txs {
		tx.Commit()
	}
	requireDrained(t, "cell collision", m)
}

// TestFastPathOwnCellCollision maps two datums of one transaction to one
// cell: the second finds the cell owned — by its own transaction, for
// another datum — and is held in a stripe, which in turn keeps a later
// upgrade of the first off the fast path. Both stay guarded and both
// release.
func TestFastPathOwnCellCollision(t *testing.T) {
	m := newRWSetManager(t)
	m.fast = newFastTable(1)
	key := func(k int64) core.Vec { return core.MakeVec(core.V(k)) }

	tx := engine.NewTx()
	for k := int64(1); k <= 2; k++ {
		if err := pre(m, tx, "contains", key(k)); err != nil {
			t.Fatal(err)
		}
	}
	if fast, held := m.FastHolds(), m.HeldLocks(); fast != 1 || held != 2 {
		t.Fatalf("FastHolds = %d, HeldLocks = %d with keys 1 and 2 read-locked in one cell, want 1 and 2", fast, held)
	}
	before := tx.Tally(m.Telemetry()).ReentrantHits
	if err := pre(m, tx, "add", key(1)); err != nil {
		t.Fatalf("upgrade of the fast-held key: %v", err)
	}
	if got := tx.Tally(m.Telemetry()).ReentrantHits - before; got != 0 {
		t.Errorf("the upgrade was granted in place with a stripe hold mapped to its cell")
	}
	if err := pre(m, tx, "contains", key(1)); err != nil {
		t.Fatalf("covered re-acquisition of the fast-held key: %v", err)
	}
	probe := engine.NewTx()
	if err := pre(m, probe, "contains", key(1)); !engine.IsConflict(err) {
		t.Errorf("reader under the stripe-held upgrade should conflict, got %v", err)
	}
	if err := pre(m, probe, "add", key(2)); !engine.IsConflict(err) {
		t.Errorf("writer under the stripe-held read should conflict, got %v", err)
	}
	if err := pre(m, probe, "contains", key(2)); err != nil {
		t.Errorf("readers of the stripe-held key should share: %v", err)
	}
	probe.Abort()
	tx.Commit()
	requireDrained(t, "own-cell collision", m)
}

// TestFastPathConcurrentDisjoint hammers disjoint keyspaces from many
// goroutines — the workload the prefilter targets — and checks full
// drainage. Run with -race for the memory-model check of the
// publish/probe and release protocols.
func TestFastPathConcurrentDisjoint(t *testing.T) {
	m := newRWSetManager(t)
	const workers = 8
	ops := 500
	if testing.Short() {
		ops = 100
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				tx := engine.NewTx()
				// Key ranges overlap pairwise so fast holds, stripe
				// fallbacks, and genuine conflicts all occur.
				k := int64(w*4 + i%8)
				err := pre(m, tx, "add", core.MakeVec(core.V(k)))
				if err != nil && !engine.IsConflict(err) {
					t.Errorf("unexpected error: %v", err)
				}
				if i%3 == 0 {
					tx.Abort()
				} else {
					tx.Commit()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.FastHolds(); got != 0 {
		t.Errorf("FastHolds = %d after stress, want 0", got)
	}
	if got := m.HeldLocks(); got != 0 {
		t.Errorf("HeldLocks = %d after stress, want 0", got)
	}
}

// TestRefusedStripeAcquisitionIsNoGrant: a reader that finds its key's
// cell owned by another transaction's write hold falls to the stripe route,
// where the key's lock is free, and the cell scan then refuses it. The
// attempt counts as a wait of the read mode and not as an acquisition.
func TestRefusedStripeAcquisitionIsNoGrant(t *testing.T) {
	m := newRWSetManager(t)
	writer, reader := engine.NewTx(), engine.NewTx()
	key := core.MakeVec(core.V(int64(7)))
	if err := pre(m, writer, "add", key); err != nil {
		t.Fatal(err)
	}
	if m.FastHolds() != 1 {
		t.Fatalf("FastHolds = %d after one write, want 1", m.FastHolds())
	}
	if err := pre(m, reader, "contains", key); !engine.IsConflict(err) {
		t.Fatalf("read under a fast-held write: %v, want a conflict", err)
	}
	reader.Abort()
	writer.Commit()
	requireDrained(t, "refused stripe read", m)

	snap := m.Telemetry().Snapshot()
	if snap.FilterHits != 1 {
		t.Errorf("%d invocations reached a stripe, want the reader's 1", snap.FilterHits)
	}
	read := m.Scheme().Modes[m.Method("contains").pre[0].Mode].String()
	for _, row := range snap.Modes {
		if row.Mode == read {
			if row.Acquired != 0 || row.Waits != 1 {
				t.Errorf("mode %s: acquired %d, waits %d; want 0 and 1", read, row.Acquired, row.Waits)
			}
			return
		}
	}
	t.Errorf("no counter row for the refused mode %s in %+v", read, snap.Modes)
}

// TestOneCellStaleHashExclusion runs a one-cell table, so writers of
// keys 1 and 2 claim and release the same cell over and over and every
// claim can find the other key's hash left behind. Meanwhile another
// writer takes the same keys on the stripe route alone. No key may ever
// have two write holders at once. Run with -race.
func TestOneCellStaleHashExclusion(t *testing.T) {
	m := newRWSetManager(t)
	m.fast = newFastTable(1)
	add := m.Method("add")
	ops := 10000
	if testing.Short() {
		ops = 1000
	}
	var writers [3]atomic.Int32 // per key 1 and 2: live write holders
	var doubled atomic.Bool
	var stripeGrants atomic.Int32
	hold := func(k int64) {
		if writers[k].Add(1) > 1 {
			doubled.Store(true)
		}
		runtime.Gosched()
		writers[k].Add(-1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := int64(1 + (w+i)%2)
				tx := engine.NewTx()
				if err := m.Acquire(tx, add, core.VInt(k)); err != nil {
					tx.Abort()
					continue
				}
				hold(k)
				tx.Commit()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			k := int64(1 + i%2)
			args := []core.Value{core.VInt(k)}
			tx := engine.NewTx()
			var err error
			for j := range add.pre {
				a := &add.pre[j]
				m.mu.Lock()
				err = m.acquireInStripe(tx, a.resolve(args, nil), a.Mode)
				m.mu.Unlock()
				if err != nil {
					break
				}
			}
			if err != nil {
				tx.Abort()
				continue
			}
			stripeGrants.Add(1)
			hold(k)
			tx.Commit()
		}
	}()
	wg.Wait()
	if doubled.Load() {
		t.Fatal("a key had two write holders at once")
	}
	if stripeGrants.Load() == 0 {
		t.Error("the stripe-route writer was never granted: the test raced nothing")
	}
	requireDrained(t, "one-cell stale hash", m)
}

// TestConflictScanRechecksOwner replays, one step at a time, a stripe
// reader that loads a cell's state word just before the cell changes
// hands: the writer it loaded releases, and another transaction claims
// the cell for the reader's own datum, in a compatible mode, before the
// reader loads the hash. The loaded owner then holds nothing, so the
// scan must not refuse the reader against it on the new claim's hash.
func TestConflictScanRechecksOwner(t *testing.T) {
	m := newRWSetManager(t)
	m.fast = newFastTable(1)
	c := &m.fast.cells[0]
	add, contains := m.Method("add"), m.Method("contains")
	read := &contains.pre[0]
	key := func(k int64) []core.Value { return []core.Value{core.VInt(k)} }
	h1, h2 := read.resolve(key(1), nil), read.resolve(key(2), nil)

	gone, fresh, reader := engine.NewTx(), engine.NewTx(), engine.NewTx()
	if err := m.Acquire(gone, add, key(2)...); err != nil || m.FastHolds() != 1 {
		t.Fatalf("write of key 2: %v with %d fast holds, want a fast hold", err, m.FastHolds())
	}
	st := c.state.Load()
	if err := m.conflictScan(reader, c, st, h2, read.Mode); !engine.IsConflict(err) {
		t.Fatalf("read of key 2 under its fast-held write: %v, want a conflict", err)
	}
	gone.Commit()
	if err := m.Acquire(fresh, contains, key(1)...); err != nil || m.FastHolds() != 1 {
		t.Fatalf("read of key 1: %v with %d fast holds, want a fast hold", err, m.FastHolds())
	}
	if c.hash.Load() != h1 || st&cellModeMask&m.incompat[read.Mode] == 0 {
		t.Fatal("the stale word must pair a conflicting mode with the reader's datum")
	}
	if err := m.conflictScan(reader, c, st, h1, read.Mode); err != nil {
		t.Fatalf("read of key 1 refused on a stale state word: %v", err)
	}
	fresh.Abort()
	reader.Abort()
	requireDrained(t, "stale state word", m)
}

// TestModesBeyondTheCellWord: a scheme with nine modes, whose mode 8 the
// cell's state word has no bit for. Mode 8 must take the stripe route,
// be refused there by another transaction's conflicting fast hold of
// mode 0 on the same datum, and, once granted on a free datum, refuse a
// later mode-0 acquirer from the stripe.
func TestModesBeyondTheCellWord(t *testing.T) {
	const n = 9
	s := &Scheme{ADT: "wide", Acquire: map[string][]Acquisition{
		"low":  {{Mode: 0, Target: TargetArg}},
		"high": {{Mode: n - 1, Target: TargetArg}},
	}}
	for i := 0; i < n; i++ {
		s.Modes = append(s.Modes, Mode{Method: fmt.Sprintf("m%d", i), Slot: "x"})
	}
	s.Incompat = make([][]bool, n)
	for i := range s.Incompat {
		s.Incompat[i] = make([]bool, n)
	}
	s.Incompat[0][n-1], s.Incompat[n-1][0] = true, true
	m := NewManager(s, nil)
	low, high := m.Method("low"), m.Method("high")

	lowTx := engine.NewTx()
	if err := m.Acquire(lowTx, low, core.VInt(5)); err != nil {
		t.Fatal(err)
	}
	if got := lowTx.Tally(m.Telemetry()).FastAdmits; got != 1 {
		t.Fatalf("mode 0 on a free datum: %d fast admits, want 1", got)
	}
	highTx := engine.NewTx()
	if err := m.Acquire(highTx, high, core.VInt(5)); !engine.IsConflict(err) {
		t.Fatalf("mode 8 under a fast-held mode 0: %v, want a conflict", err)
	}
	if tl := highTx.Tally(m.Telemetry()); tl.FilterHits != 1 || tl.FastAdmits != 0 {
		t.Errorf("refused mode 8: %d filter hits, %d fast admits; want 1 and 0", tl.FilterHits, tl.FastAdmits)
	}
	highTx.Abort()

	highTx = engine.NewTx()
	if err := m.Acquire(highTx, high, core.VInt(6)); err != nil {
		t.Fatal(err)
	}
	if tl := highTx.Tally(m.Telemetry()); tl.FilterHits != 1 || tl.FastAdmits != 0 || m.FastHolds() != 1 {
		t.Errorf("mode 8 on a free datum: %d filter hits, %d fast admits, %d fast holds; want 1, 0 and 1", tl.FilterHits, tl.FastAdmits, m.FastHolds())
	}
	probe := engine.NewTx()
	if err := m.Acquire(probe, low, core.VInt(6)); !engine.IsConflict(err) {
		t.Errorf("mode 0 under a stripe-held mode 8: %v, want a conflict", err)
	}
	probe.Abort()
	highTx.Commit()
	lowTx.Commit()
	requireDrained(t, "nine modes", m)
}

// TestCellIs32Bytes: two cells to a half line, so none straddles one.
func TestCellIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(cell{}); n != 32 {
		t.Errorf("cell is %d bytes, want 32", n)
	}
}
