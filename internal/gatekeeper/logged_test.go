package gatekeeper

import (
	"strings"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// TestPanickingExecReturnsItsEntry: an exec that panics leaves the
// section through the deferred end alone, which must hand the entry
// begin took back to the free stack — once. The executor turns the
// panic into the run's error and aborts the attempt, which releases
// what the transaction had already logged.
func TestPanickingExecReturnsItsEntry(t *testing.T) {
	fg, err := NewForward(rwSetSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gg, err := NewGeneral(rwSetSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		l    *logged
		add  func(tx *engine.Tx, x int64, exec func()) error
	}{
		{"forward", &fg.logged, func(tx *engine.Tx, x int64, exec func()) error {
			_, err := fg.Invoke(tx, fg.Method("add"), core.Args1(core.VInt(x)), func() Effect {
				exec()
				return Effect{Ret: core.VBool(true)}
			})
			return err
		}},
		{"general", &gg.logged, func(tx *engine.Tx, x int64, exec func()) error {
			_, err := gg.Invoke(tx, gg.Method("add"), core.Args1(core.VInt(x)), func() Effect {
				exec()
				return Effect{Ret: core.VBool(true)}
			})
			return err
		}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			l := arm.l
			_, err := engine.RunItems([]int64{1}, engine.Options{Workers: 1},
				func(tx *engine.Tx, x int64, _ *engine.Worklist[int64]) error {
					if err := arm.add(tx, x, func() {}); err != nil {
						return err
					}
					return arm.add(tx, x+1, func() { panic("kaboom") })
				})
			if err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Fatalf("run error = %v, want the panic", err)
			}
			if n := l.ActiveInvocations(); n != 0 {
				t.Fatalf("%d invocations active after the aborted attempt", n)
			}
			if len(l.entries) != 2 || len(l.free) != 2 || l.free[0] == l.free[1] {
				t.Fatalf("free stack holds %d of %d entries (distinct: %v), want both, once each",
					len(l.free), len(l.entries), len(l.free) == 2 && l.free[0] != l.free[1])
			}
			tx := engine.NewTx()
			for x := int64(1); x <= 2; x++ {
				if err := arm.add(tx, x, func() {}); err != nil {
					t.Fatalf("add(%d) after the panic: %v", x, err)
				}
			}
			active := l.Method("add").active
			if len(active) != 2 || active[0] == active[1] || len(l.entries) != 2 {
				t.Fatalf("two invocations share an entry or took a new one: %d active, %d entries", len(active), len(l.entries))
			}
			tx.Commit()
			if n := l.ActiveInvocations(); n != 0 {
				t.Fatalf("%d invocations active after commit", n)
			}
		})
	}
}
