package intset

import (
	"testing"

	"commlat/internal/engine"
)

// TestUndoLogsAllocateNothing: the STM set and the abstract-locked set
// undo from their engine.UndoLog records, so a steady-state change
// allocates nothing, whether its transaction commits or aborts.
func TestUndoLogsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops transactions at random under -race")
	}
	stm, locked := NewSTM(16), NewRWLocked(NewHashRep())
	// run applies op to x in one transaction and ends it.
	run := func(s Set, op setOp, x int64, commit bool) {
		tx := engine.GetTx()
		var changed bool
		var err error
		if op == opAdd {
			changed, err = s.Add(tx, x)
		} else {
			changed, err = s.Remove(tx, x)
		}
		if !changed || err != nil {
			t.Fatalf("%s(%d) = %v, %v", opNames[op], x, changed, err)
		}
		if commit {
			tx.Commit()
		} else {
			tx.Abort()
		}
		engine.PutTx(tx)
	}
	run(stm, opAdd, 9, true)
	cycles := []struct {
		name string
		body func()
	}{
		{"stm add, remove, commit", func() { run(stm, opAdd, 5, true); run(stm, opRemove, 5, true) }},
		{"stm add, remove, abort", func() { run(stm, opAdd, 5, false); run(stm, opRemove, 9, false) }},
		{"locked add, commit", func() { run(locked, opAdd, 5, true); run(locked, opRemove, 5, true) }},
		{"locked add, abort", func() { run(locked, opAdd, 5, false) }},
	}
	for _, c := range cycles {
		if allocs := testing.AllocsPerRun(100, c.body); allocs != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", c.name, allocs)
		}
	}
	if got := stm.Snapshot(); len(got) != 1 || got[0] != 9 {
		t.Errorf("stm set holds %v, want [9]", got)
	}
	if got := locked.Snapshot(); len(got) != 0 {
		t.Errorf("locked set holds %v, want []", got)
	}
}
