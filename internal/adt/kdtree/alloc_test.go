package kdtree

import (
	"slices"
	"testing"

	"commlat/internal/engine"
)

// stepPoints is a tree where p = (0,0,0) and n = (1,0,0) are each
// other's nearest neighbours, far from the rest.
var stepPoints = []Point{
	{0, 0, 0}, {1, 0, 0}, {10, 0, 0}, {0, 10, 0}, {0, 0, 10},
	{10, 10, 0}, {10, 0, 10}, {0, 10, 10}, {10, 10, 10}, {20, 20, 20},
}

// gkStep runs one cluster.Step-shaped transaction body on k: contains(p),
// n = nearest(p), nearest(n), remove(p), remove(n), add(midpoint).
func gkStep(t *testing.T, k *GKTree, tx *engine.Tx, p Point) {
	t.Helper()
	if ok, err := k.Contains(tx, p); !ok || err != nil {
		t.Fatalf("Contains(%v) = %v, %v", p, ok, err)
	}
	n, err := k.Nearest(tx, p)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := k.Nearest(tx, n); m != p || err != nil {
		t.Fatalf("Nearest(%v) = %v, %v; want %v", n, m, err, p)
	}
	for _, q := range []Point{p, n} {
		if ok, err := k.Remove(tx, q); !ok || err != nil {
			t.Fatalf("Remove(%v) = %v, %v", q, ok, err)
		}
	}
	c := Point{(p[0] + n[0]) / 2, (p[1] + n[1]) / 2, (p[2] + n[2]) / 2}
	if ok, err := k.Add(tx, c); !ok || err != nil {
		t.Fatalf("Add(%v) = %v, %v", c, ok, err)
	}
}

// sortedPoints is the tree's point set in a canonical order.
func sortedPoints(k *GKTree) []Point {
	return sortPoints(k.t.Points())
}

// sortPoints sorts pts in place by Less and returns it.
func sortPoints(pts []Point) []Point {
	slices.SortFunc(pts, func(a, b Point) int {
		if Less(a, b) {
			return -1
		}
		if Less(b, a) {
			return 1
		}
		return 0
	})
	return pts
}

// TestGKStepAllocatesNothing: with points inline in the values and each
// mutation undone by its method's inverse, a clustering step through
// the forward gatekeeper allocates nothing — neither the merge that
// commits nor the transaction that puts the pair back.
func TestGKStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops transactions at random under -race")
	}
	k := NewGK()
	k.Seed(stepPoints)
	want := sortedPoints(k)
	p, n, c := stepPoints[0], stepPoints[1], Point{0.5, 0, 0}
	merge := func() {
		tx := engine.GetTx()
		gkStep(t, k, tx, p)
		tx.Commit()
		engine.PutTx(tx)
	}
	restore := func() {
		tx := engine.GetTx()
		_, err := k.Remove(tx, c)
		if err == nil {
			_, err = k.Add(tx, p)
		}
		if err == nil {
			_, err = k.Add(tx, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
	merge()
	if k.Len() != len(stepPoints)-1 {
		t.Fatalf("merge left %d points, want %d", k.Len(), len(stepPoints)-1)
	}
	restore()
	if got := sortedPoints(k); !slices.Equal(got, want) {
		t.Fatalf("restore left %v, want %v", got, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		merge()
		restore()
	})
	if allocs != 0 {
		t.Errorf("a merge and its restore allocate %v per run, want 0", allocs)
	}
	if n := k.g.ActiveInvocations(); n != 0 {
		t.Errorf("%d invocations still active", n)
	}
}

// TestGKRefusedStepLeavesTreeIdentical: the same step, then an add
// refused after it ran and a refused nearest, aborted, leaves the tree
// as it found it: the refused add's inverse ran as it was refused, and
// the inverses of the step's two removes and its add ran at the abort,
// newest first.
func TestGKRefusedStepLeavesTreeIdentical(t *testing.T) {
	k := NewGK()
	k.Seed(stepPoints)
	other := engine.NewTx()
	// other adds a point right next to (20,20,20), so a nearest query
	// there no longer commutes with it, and asks for the nearest point
	// to (21,20,20), so an add closer to that than (20,20,20) does not.
	if ok, err := k.Add(other, Point{19, 20, 20}); !ok || err != nil {
		t.Fatalf("Add = %v, %v", ok, err)
	}
	if q, err := k.Nearest(other, Point{21, 20, 20}); q != (Point{20, 20, 20}) || err != nil {
		t.Fatalf("Nearest = %v, %v", q, err)
	}
	before := sortedPoints(k)
	tx := engine.NewTx()
	gkStep(t, k, tx, stepPoints[0])
	if _, err := k.Add(tx, Point{20.5, 20, 20}); !engine.IsConflict(err) {
		t.Fatalf("add closer to an active query than its answer: got %v, want a conflict", err)
	}
	if _, err := k.Nearest(tx, Point{19.5, 20, 20}); !engine.IsConflict(err) {
		t.Fatalf("nearest next to an active add: got %v, want a conflict", err)
	}
	tx.Abort()
	if got := sortedPoints(k); !slices.Equal(got, before) {
		t.Fatalf("aborted step left %v, want %v", got, before)
	}
	other.Abort()
	want := sortPoints(slices.Clone(stepPoints))
	if got := sortedPoints(k); !slices.Equal(got, want) {
		t.Fatalf("both aborts left %v, want %v", got, want)
	}
	if n := k.g.ActiveInvocations(); n != 0 {
		t.Errorf("%d invocations still active", n)
	}
}

// TestUndoLogRestoresAndRecycles: kd-ml and the abstract-locked tree
// undo a transaction's mutations from their own records, newest first,
// and reuse those records once the transaction ends, committed or not.
func TestUndoLogRestoresAndRecycles(t *testing.T) {
	ml, locked := NewML(), NewLocked()
	for _, c := range []struct {
		name string
		idx  Index
		log  *engine.UndoLog[mutation]
	}{{"kd-ml", ml, ml.log}, {"kd-locked", locked, locked.log}} {
		c.idx.Seed(stepPoints)
		p, n, mid := stepPoints[0], stepPoints[1], Point{0.5, 0, 0}
		for round := 0; round < 3; round++ {
			for _, commit := range []bool{false, true} {
				tx := engine.NewTx()
				// Remove p, add the midpoint, remove it again, remove n:
				// undoing out of order would re-add the midpoint or
				// leave it.
				for i, op := range []struct {
					p   Point
					add bool
				}{{p, false}, {mid, true}, {mid, false}, {n, false}} {
					var ok bool
					var err error
					if op.add {
						ok, err = c.idx.Add(tx, op.p)
					} else {
						ok, err = c.idx.Remove(tx, op.p)
					}
					if !ok || err != nil {
						t.Fatalf("%s: op %d on %v = %v, %v", c.name, i, op.p, ok, err)
					}
				}
				if !commit {
					tx.Abort()
					if c.idx.Len() != len(stepPoints) {
						t.Fatalf("%s: abort left %d points, want %d", c.name, c.idx.Len(), len(stepPoints))
					}
					continue
				}
				tx.Commit()
				// Put p and n back for the next round.
				tx = engine.NewTx()
				if _, err := c.idx.Add(tx, p); err != nil {
					t.Fatal(err)
				}
				if _, err := c.idx.Add(tx, n); err != nil {
					t.Fatal(err)
				}
				tx.Commit()
			}
		}
		check := engine.NewTx()
		for _, q := range stepPoints {
			if ok, err := c.idx.Contains(check, q); !ok || err != nil {
				t.Errorf("%s: Contains(%v) = %v, %v after the rounds", c.name, q, ok, err)
			}
		}
		check.Commit()
		if got := c.log.Records(); got != 4 {
			t.Errorf("%s: %d records after the rounds, want the 4 one transaction needs", c.name, got)
		}
	}
}

// TestGKUnchangedMutationUndoesNothing: an add of a present point and a
// remove of an absent one change nothing, so aborting their transaction
// runs no inverse — also on gatekeeper entries recycled from mutations
// that did change the tree.
func TestGKUnchangedMutationUndoesNothing(t *testing.T) {
	k := NewGK()
	k.Seed(stepPoints)
	tx := engine.NewTx()
	if ok, err := k.Add(tx, Point{5, 5, 5}); !ok || err != nil {
		t.Fatalf("Add = %v, %v", ok, err)
	}
	if ok, err := k.Remove(tx, Point{5, 5, 5}); !ok || err != nil {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	tx.Commit()
	want := sortedPoints(k)
	tx = engine.NewTx()
	if ok, err := k.Remove(tx, Point{5, 5, 5}); ok || err != nil {
		t.Fatalf("Remove of an absent point = %v, %v", ok, err)
	}
	if ok, err := k.Add(tx, stepPoints[0]); ok || err != nil {
		t.Fatalf("Add of a present point = %v, %v", ok, err)
	}
	tx.Abort()
	if got := sortedPoints(k); !slices.Equal(got, want) {
		t.Fatalf("abort of unchanged mutations left %v, want %v", got, want)
	}
}
