package accum

import (
	"testing"

	"commlat/internal/engine"
)

// TestIncAllocatesNothing: an increment is undone from the
// accumulator's engine.UndoLog, so a steady-state Inc allocates nothing,
// whether its transaction commits or aborts.
func TestIncAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops transactions at random under -race")
	}
	a := New()
	inc := func(x int64, commit bool) {
		tx := engine.GetTx()
		if err := a.Inc(tx, x); err != nil {
			t.Fatal(err)
		}
		if commit {
			tx.Commit()
		} else {
			tx.Abort()
		}
		engine.PutTx(tx)
	}
	for _, commit := range []bool{true, false} {
		if allocs := testing.AllocsPerRun(100, func() { inc(1, commit); inc(2, false) }); allocs != 0 {
			t.Errorf("commit=%v: Inc allocates %v per cycle, want 0", commit, allocs)
		}
	}
	if got := a.Total(); got != 101 {
		t.Errorf("total = %d, want the 101 committed increments", got)
	}
}
