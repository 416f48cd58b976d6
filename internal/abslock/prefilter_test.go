package abslock

import (
	"sync"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// TestFastPathDisjointAccess checks the prefilter's reason for existing:
// acquisitions on distinct datums admit without a stripe mutex (visible
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
// checks that those overflow to the stripes without changing any
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
	before := m.Telemetry().Snapshot().ReentrantHits
	if err := pre(m, tx, "add", key(1)); err != nil {
		t.Fatalf("upgrade of the fast-held key: %v", err)
	}
	if got := m.Telemetry().Snapshot().ReentrantHits - before; got != 0 {
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
