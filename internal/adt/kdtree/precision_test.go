package kdtree

import (
	"math/rand"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// TestMLInteriorAddDoesNotTouchRoot: inserting a point strictly inside
// existing bounding boxes only writes the leaf path where boxes change,
// so a concurrent query of a far-away region proceeds — the memory-level
// precision a real STM would have.
func TestMLInteriorAddDoesNotTouchRoot(t *testing.T) {
	ml := NewML()
	// Two well-separated clusters so the root splits them apart.
	var pts []Point
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		pts = append(pts, Point{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10})
		pts = append(pts, Point{1000 + r.Float64()*10, r.Float64() * 10, r.Float64() * 10})
	}
	ml.Seed(pts)

	// tx1 queries the far cluster; tx2 inserts strictly inside the near
	// cluster's box: boxes on tx2's path do not change above the leaf
	// region, so the two commute at memory level.
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if _, err := ml.Nearest(tx1, Point{1005, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if ok, err := ml.Add(tx2, Point{5, 5, 5}); err != nil || !ok {
		t.Fatalf("interior add = %v, %v (expected to commute: no box changes near the root)", ok, err)
	}
	// An insertion extending the global bounding box writes the root:
	// conflict with the reader.
	if _, err := ml.Add(tx2, Point{5000, 5000, 5000}); !engine.IsConflict(err) {
		t.Fatalf("box-extending add should conflict at the root, got %v", err)
	}
}

// TestMLInteriorRemovePrecision: removing an interior (non-boundary)
// point leaves ancestor boxes untouched; removing a boundary point
// writes them.
func TestMLInteriorRemovePrecision(t *testing.T) {
	ml := NewML()
	var pts []Point
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		pts = append(pts, Point{r.Float64()*8 + 1, r.Float64()*8 + 1, r.Float64()*8 + 1})
		pts = append(pts, Point{1000 + r.Float64()*8, r.Float64()*8 + 1, r.Float64()*8 + 1})
	}
	interior := Point{5, 5, 5}
	corner := Point{0, 0, 0} // global minimum: on every ancestor boundary
	pts = append(pts, interior, corner)
	ml.Seed(pts)

	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if _, err := ml.Nearest(tx1, Point{1004, 4, 4}); err != nil {
		t.Fatal(err)
	}
	if ok, err := ml.Remove(tx2, interior); err != nil || !ok {
		t.Fatalf("interior remove = %v, %v (should commute)", ok, err)
	}
	if _, err := ml.Remove(tx2, corner); !engine.IsConflict(err) {
		t.Fatalf("boundary remove should conflict at the root, got %v", err)
	}
}

// TestSerializableRandomHistories replays random interleaved
// two-transaction histories against figure 4's specification (Theorem 2
// for the kd-tree): whenever all cross-transaction conditions hold, a
// serial order must reproduce returns and final state.
func TestSerializableRandomHistories(t *testing.T) {
	spec := Spec()
	r := rand.New(rand.NewSource(77))
	grid := []Point{}
	for x := 0; x < 3; x++ {
		for y := 0; y < 2; y++ {
			grid = append(grid, Point{float64(x), float64(y), 0})
		}
	}
	held, total := 0, 0
	for trial := 0; trial < 1500; trial++ {
		m := &treeModel{}
		for _, p := range grid {
			if r.Intn(2) == 0 {
				m.pts = append(m.pts, p)
			}
		}
		n := 2 + r.Intn(4)
		hist := make([]core.Step, n)
		for i := range hist {
			method := []string{"add", "remove", "nearest", "contains"}[r.Intn(4)]
			hist[i] = core.Step{
				Tx:   r.Intn(2),
				Call: core.Call{Method: method, Args: []core.Value{core.VVec(grid[r.Intn(len(grid))])}},
			}
		}
		rep, err := core.CheckSerializable(m, spec, hist)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if rep.CondsHeld {
			held++
			if !rep.SerialOK {
				t.Fatalf("conditions held but history not serializable: %+v from %s", hist, m.StateKey())
			}
		}
	}
	if held == 0 {
		t.Error("no history satisfied all conditions; test vacuous")
	}
	t.Logf("histories: %d total, %d with all conditions held", total, held)
}

// TestLockedTreeSerializesQueriesAgainstMutators: the strengthened
// SIMPLE point's nearest~add condition is false, so a query under a live
// mutator conflicts regardless of geometry — the uselessness the paper
// notes, made visible.
func TestLockedTreeSerializesQueriesAgainstMutators(t *testing.T) {
	l := NewLocked()
	l.Seed([]Point{{0, 0, 0}, {100, 100, 100}})
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if _, err := l.Nearest(tx1, Point{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	// Even a far-away insertion conflicts: nearest~add is false.
	if _, err := l.Add(tx2, Point{500, 500, 500}); !engine.IsConflict(err) {
		t.Fatalf("expected ds-level conflict, got %v", err)
	}
	// Another query shares (nearest~nearest is true).
	if _, err := l.Nearest(tx2, Point{2, 2, 2}); err != nil {
		t.Fatalf("concurrent queries should share: %v", err)
	}
	tx1.Abort()
	tx2.Abort()
	// Same-point mutators conflict; different-point mutators share.
	tx3, tx4 := engine.NewTx(), engine.NewTx()
	defer tx3.Abort()
	defer tx4.Abort()
	if _, err := l.Add(tx3, Point{5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Add(tx4, Point{5, 5, 5}); !engine.IsConflict(err) {
		t.Fatalf("same-point adds should conflict, got %v", err)
	}
	if _, err := l.Add(tx4, Point{6, 6, 6}); err != nil {
		t.Fatalf("different-point adds should share: %v", err)
	}
}

// TestLockedTreeNearestLocksItsResult: the reduced SIMPLE scheme lists a
// post-execution nearest:ret mode (incompatible with remove:a), so a
// query holds a lock on its argument and one on the point it returned.
func TestLockedTreeNearestLocksItsResult(t *testing.T) {
	l := NewLocked()
	l.Seed([]Point{{0, 0, 0}, {100, 100, 100}})
	tx := engine.NewTx()
	defer tx.Abort()
	q, err := l.Nearest(tx, Point{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if q != (Point{0, 0, 0}) {
		t.Fatalf("Nearest = %v, want the origin", q)
	}
	if got := l.mgr.HeldLocks(); got != 2 {
		t.Errorf("HeldLocks = %d after Nearest, want 2 (the query point and the result)", got)
	}
}

// TestLockedTreeProfileCollapses: under the lock point, clustering's
// parallelism collapses toward 1 — every merge serializes against every
// query — while kd-gk stays parallel (the quantitative form of the
// paper's remark).
func TestLockedTreeProfileCollapses(t *testing.T) {
	// Use the cluster step shape inline to avoid an import cycle with
	// apps/cluster: contains + nearest + nearest + mutators.
	pts := make([]Point, 0, 40)
	r := rand.New(rand.NewSource(3))
	seen := map[Point]bool{}
	for len(pts) < 40 {
		p := Point{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	measure := func(idx Index) float64 {
		idx.Seed(pts)
		// One round of concurrent nearest queries, ParaMeter-style.
		committed := 0
		var open []*engine.Tx
		for _, p := range pts {
			tx := engine.NewTx()
			if _, err := idx.Nearest(tx, p); err != nil {
				tx.Abort()
				continue
			}
			open = append(open, tx)
			committed++
		}
		// One mutator joining the round.
		tx := engine.NewTx()
		if _, err := idx.Add(tx, Point{500, 500, 500}); err == nil {
			committed++
			open = append(open, tx)
		} else {
			tx.Abort()
		}
		for _, o := range open {
			o.Commit()
		}
		return float64(committed)
	}
	locked := measure(NewLocked())
	gk := measure(NewGK())
	if locked >= gk {
		t.Errorf("lock point admitted %v concurrent ops, gatekeeper %v; expected strictly less", locked, gk)
	}
	// All queries share under both; only the mutator differs... unless
	// geometry blocks it for gk too. The locked variant must at minimum
	// reject the mutator.
	if locked != float64(len(pts)) {
		t.Errorf("locked round = %v, want %d (queries share, mutator blocked)", locked, len(pts))
	}
}
