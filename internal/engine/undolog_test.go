package engine

import (
	"slices"
	"sync"
	"testing"
)

// logged is an UndoLog record that pins a value through its pointer.
type logged struct {
	name string
	pin  *int
}

// TestUndoLogTwoLogsOneTx: two logs in one transaction each undo their
// own records newest first, the log registered last first (the engine's
// LIFO over Undoers). Released records are zeroed, so they pin nothing,
// and a steady-state log does not grow.
func TestUndoLogTwoLogsOneTx(t *testing.T) {
	var mu sync.Mutex
	var order []string
	undo := func(r logged) {
		if mu.TryLock() { // the callback must run under the owner's mutex
			mu.Unlock()
			t.Errorf("record %s undone without the owner's mutex", r.name)
		}
		order = append(order, r.name)
	}
	a, b := NewUndoLog(&mu, undo), NewUndoLog(&mu, undo)
	for round := 0; round < 50; round++ {
		order = order[:0]
		tx := GetTx()
		mu.Lock()
		for _, s := range []struct {
			l    *UndoLog[logged]
			name string
		}{{a, "a1"}, {b, "b1"}, {a, "a2"}, {b, "b2"}, {a, "a3"}} {
			s.l.Record(tx, logged{name: s.name, pin: new(int)})
		}
		mu.Unlock()
		if round%2 == 1 {
			tx.Commit()
			if len(order) != 0 {
				t.Fatalf("commit undid %v", order)
			}
		} else {
			tx.Abort()
			if want := []string{"b2", "b1", "a3", "a2", "a1"}; !slices.Equal(order, want) {
				t.Fatalf("abort undid %v, want %v", order, want)
			}
		}
		PutTx(tx)
		for _, l := range []*UndoLog[logged]{a, b} {
			for i, rec := range l.recs {
				if rec.r != (logged{}) {
					t.Fatalf("round %d: released record %d still holds %+v", round, i, rec.r)
				}
			}
		}
	}
	if na, nb := a.Records(), b.Records(); na != 3 || nb != 2 {
		t.Errorf("logs hold %d and %d records after 50 rounds, want the 3 and 2 one transaction needs", na, nb)
	}
}

// TestUndoLogConcurrentTxs: records of transactions live at once stay on
// their own chains, whichever ends first.
func TestUndoLogConcurrentTxs(t *testing.T) {
	var mu sync.Mutex
	sum := 0
	l := NewUndoLog(&mu, func(x int) { sum -= x })
	t1, t2 := NewTx(), NewTx()
	for _, step := range []struct {
		tx *Tx
		x  int
	}{{t1, 1}, {t2, 10}, {t1, 2}, {t2, 20}} {
		mu.Lock()
		sum += step.x
		l.Record(step.tx, step.x)
		mu.Unlock()
	}
	t1.Abort()
	if sum != 30 {
		t.Fatalf("aborting t1 left %d, want t2's 30", sum)
	}
	t2.Commit()
	t3 := NewTx()
	mu.Lock()
	l.Record(t3, 5)
	sum += 5
	mu.Unlock()
	t3.Abort()
	if sum != 30 || l.Records() != 4 {
		t.Errorf("sum %d with %d records, want 30 with the 4 records reused", sum, l.Records())
	}
}
