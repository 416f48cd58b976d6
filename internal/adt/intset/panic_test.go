package intset

import (
	"sort"
	"strings"
	"testing"

	"commlat/internal/engine"
)

// TestBodyPanicLeavesDetectorsClean panics in an iteration body right
// after a successful guarded Add, under both executor entry points. The
// run must come back as an error carrying the panic value, with the
// panicking transaction rolled back (its element gone again) and
// nothing left behind in the detector: no cascade slot, no abstract
// lock, no fast hold.
func TestBodyPanicLeavesDetectorsClean(t *testing.T) {
	const n, bad = 64, 40
	items := make([]int64, n)
	for i := range items {
		items[i] = int64(i)
	}
	add := func(s Set, tx *engine.Tx, x int64) error {
		_, err := s.Add(tx, x)
		if err == nil && x == bad {
			panic("boom after add")
		}
		return err
	}
	// One worker pops in seed order, so exactly the items before the bad
	// one have committed when the panic cancels the run.
	opts := engine.Options{Workers: 1, BatchSize: 32}
	runs := map[string]func(Set) error{
		"Run": func(s Set) error {
			_, err := engine.RunItems(items, opts, func(tx *engine.Tx, x int64, _ *engine.Worklist[int64]) error {
				return add(s, tx, x)
			})
			return err
		},
		"RunItemsBatched": func(s Set) error {
			_, err := engine.RunItemsBatched(items, opts,
				func(txs []*engine.Tx, xs []int64, _ *engine.Worklist[int64], errs []error) error {
					for i, tx := range txs {
						if errs[i] = add(s, tx, xs[i]); errs[i] == nil {
							tx.Commit()
						}
					}
					return nil
				})
			return err
		},
	}
	sets := map[string]func() (Set, func() int){
		"cascade": func() (Set, func() int) {
			s := NewCascaded(NewHashRep())
			return s, s.Cascade().ActiveInvocations
		},
		"rw-locks": func() (Set, func() int) {
			s := NewRWLocked(NewHashRep())
			return s, func() int { return s.mgr.HeldLocks() + s.mgr.FastHolds() }
		},
	}
	for setName, mk := range sets {
		for runName, run := range runs {
			t.Run(setName+"/"+runName, func(t *testing.T) {
				s, held := mk()
				err := run(s)
				if err == nil || !strings.Contains(err.Error(), "boom after add") {
					t.Fatalf("err = %v, want the panic as a run error", err)
				}
				if got := held(); got != 0 {
					t.Errorf("detector still holds %d records after the run", got)
				}
				got := s.Snapshot()
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if len(got) != bad {
					t.Fatalf("set has %d elements, want the %d committed before the panic: %v", len(got), bad, got)
				}
				for i, x := range got {
					if x != int64(i) {
						t.Fatalf("set = %v, want 0..%d", got, bad-1)
					}
				}
			})
		}
	}
}
