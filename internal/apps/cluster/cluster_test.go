package cluster

import (
	"fmt"
	"slices"
	"testing"

	"commlat/internal/adt/kdtree"
	"commlat/internal/engine"
	"commlat/internal/workload"
)

func TestSequentialMergesAll(t *testing.T) {
	pts := workload.RandomPoints(40, 100, 1)
	d := Sequential(pts)
	merges := d.Merges()
	if len(merges) != len(pts)-1 {
		t.Fatalf("merges = %d, want %d", len(merges), len(pts)-1)
	}
	validateDendrogram(t, pts, merges)
}

// validateDendrogram checks the structural invariants: every input point
// is consumed exactly once, every merge consumes two live clusters and
// produces their midpoint, and exactly one cluster survives.
func validateDendrogram(t *testing.T, pts []kdtree.Point, merges []Merge) {
	t.Helper()
	live := map[kdtree.Point]bool{}
	for _, p := range pts {
		if live[p] {
			t.Fatal("duplicate input point")
		}
		live[p] = true
	}
	for i, m := range merges {
		if !live[m.A] || !live[m.B] {
			t.Fatalf("merge %d consumes dead cluster: %+v", i, m)
		}
		if m.Parent != Midpoint(m.A, m.B) {
			t.Fatalf("merge %d parent is not the midpoint", i)
		}
		delete(live, m.A)
		delete(live, m.B)
		if live[m.Parent] {
			t.Fatalf("merge %d produces duplicate cluster", i)
		}
		live[m.Parent] = true
	}
	if len(live) != 1 {
		t.Fatalf("%d clusters survive, want 1", len(live))
	}
}

func indexVariants() map[string]func() kdtree.Index {
	return map[string]func() kdtree.Index{
		"kd-ml": func() kdtree.Index { return kdtree.NewML() },
		"kd-gk": func() kdtree.Index { return kdtree.NewGK() },
		// The strengthened-SIMPLE lock point: correct but serializes
		// queries against mutators (the paper skips it for Table 1
		// because it "merely prevents add and nearest from executing
		// concurrently"; we keep it to validate correctness).
		"kd-lock": func() kdtree.Index { return kdtree.NewLocked() },
	}
}

func TestRunSingleWorkerMatchesSequential(t *testing.T) {
	pts := workload.RandomPoints(60, 100, 2)
	want := Sequential(pts).Merges()
	for name, mk := range indexVariants() {
		d, res, err := Run(mk(), pts, engine.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := d.Merges()
		if len(got) != len(want) {
			t.Fatalf("%s: %d merges, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: merge %d = %+v, want %+v (single worker should match the sequential order)", name, i, got[i], want[i])
			}
		}
		if res.Stats.Aborts != 0 {
			t.Errorf("%s: single worker aborted %d times", name, res.Stats.Aborts)
		}
	}
}

func TestRunParallelAllVariants(t *testing.T) {
	pts := workload.RandomPoints(120, 100, 3)
	for name, mk := range indexVariants() {
		idx := mk()
		d, res, err := Run(idx, pts, engine.Options{Workers: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		merges := d.Merges()
		if len(merges) != len(pts)-1 {
			t.Fatalf("%s: %d merges, want %d (stats %+v)", name, len(merges), len(pts)-1, res.Stats)
		}
		validateDendrogram(t, pts, merges)
		if idx.Len() != 1 {
			t.Errorf("%s: %d points left in tree", name, idx.Len())
		}
	}
}

func TestProfileGKBeatsML(t *testing.T) {
	pts := workload.RandomPoints(100, 100, 4)
	results := map[string]ProfileResult{}
	for name, mk := range indexVariants() {
		res, err := Profile(mk(), pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Merges != len(pts)-1 {
			t.Fatalf("%s: %d merges, want %d", name, res.Merges, len(pts)-1)
		}
		results[name] = res
	}
	// Table 1's headline: the gatekeeper exposes (much) more parallelism
	// than memory-level detection, whose critical path is an order of
	// magnitude longer.
	if results["kd-gk"].AvgParallelism <= results["kd-ml"].AvgParallelism {
		t.Errorf("kd-gk parallelism (%v) should exceed kd-ml (%v)",
			results["kd-gk"].AvgParallelism, results["kd-ml"].AvgParallelism)
	}
	if results["kd-gk"].CriticalPath >= results["kd-ml"].CriticalPath {
		t.Errorf("kd-gk critical path (%d) should be shorter than kd-ml (%d)",
			results["kd-gk"].CriticalPath, results["kd-ml"].CriticalPath)
	}
	t.Logf("kd-ml: path=%d par=%.2f; kd-gk: path=%d par=%.2f",
		results["kd-ml"].CriticalPath, results["kd-ml"].AvgParallelism,
		results["kd-gk"].CriticalPath, results["kd-gk"].AvgParallelism)
}

func TestMidpoint(t *testing.T) {
	got := Midpoint(kdtree.Point{0, 2, 4}, kdtree.Point{2, 4, 8})
	if got != (kdtree.Point{1, 3, 6}) {
		t.Errorf("Midpoint = %v", got)
	}
}

// TestDendrogramTombstones drives the log with real transactions: an
// abort tombstones every merge its transaction recorded and no one
// else's, interleaved or not.
func TestDendrogramTombstones(t *testing.T) {
	pt := func(x float64) kdtree.Point { return kdtree.Point{x, 0, 0} }
	d := &Dendrogram{}
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	d.add(tx1, pt(1), pt(2), pt(1.5))
	d.add(tx2, pt(3), pt(4), pt(3.5))
	d.add(tx1, pt(5), pt(6), pt(5.5))
	d.add(nil, pt(7), pt(8), pt(7.5))
	tx1.Abort()
	tx2.Commit()
	want := []Merge{{pt(3), pt(4), pt(3.5)}, {pt(7), pt(8), pt(7.5)}}
	if got := d.Merges(); !slices.Equal(got, want) {
		t.Errorf("Merges = %+v, want %+v", got, want)
	}
	// A transaction that recorded nothing here must be able to abort.
	engine.NewTx().Abort()
}

func TestTwoPoints(t *testing.T) {
	pts := []kdtree.Point{{0, 0, 0}, {1, 1, 1}}
	for name, mk := range indexVariants() {
		d, _, err := Run(mk(), pts, engine.Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.Merges()) != 1 {
			t.Errorf("%s: merges = %d", name, len(d.Merges()))
		}
	}
}

func TestSinglePointNoMerges(t *testing.T) {
	d, _, err := Run(kdtree.NewGK(), []kdtree.Point{{5, 5, 5}}, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges()) != 0 {
		t.Errorf("merges = %d, want 0", len(d.Merges()))
	}
}

func ExampleSequential() {
	pts := []kdtree.Point{{0, 0, 0}, {1, 0, 0}, {10, 0, 0}, {11, 0, 0}}
	d := Sequential(pts)
	fmt.Println(len(d.Merges()), "merges")
	// Output: 3 merges
}
