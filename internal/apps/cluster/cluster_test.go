package cluster

import (
	"fmt"
	"strings"
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

// TestRunParallelAllVariants logs each variant's engine.Stats. kd-lock
// takes nearly all of its time: every non-reciprocal point commits a
// requeue whose nearest holds the tree lock, so the one merging
// Remove is refused again and again, each retry at maximal backoff.
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
		t.Logf("%s: %+v", name, res.Stats)
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

// refusingAdds is a kd-gk index whose Add is always refused, as by the
// transaction holder.
type refusingAdds struct {
	kdtree.Index
	holder uint64
}

func (r refusingAdds) Add(*engine.Tx, kdtree.Point) (bool, error) {
	return false, engine.ConflictBy(r.holder, "add refused")
}

// abortPanic aborts tx and returns what the abort panicked with, or
// nil.
func abortPanic(tx *engine.Tx) (r any) {
	defer func() { r = recover() }()
	tx.Abort()
	return nil
}

var pair = []kdtree.Point{{0, 0, 0}, {1, 1, 1}}

// TestRefusedAddRecordsNothing: a Step refused at its final Add has not
// sealed, so it aborts cleanly: both points are back and the dendrogram
// is empty.
func TestRefusedAddRecordsNothing(t *testing.T) {
	idx := refusingAdds{Index: kdtree.NewGK(), holder: engine.NewTx().ID()}
	idx.Seed(pair)
	d := newDendrogram(len(pair))
	tx := engine.NewTx()
	if _, err := Step(tx, idx, d, pair[0], func(kdtree.Point) {}); !engine.IsConflict(err) {
		t.Fatalf("Step with a refused Add: %v, want a conflict", err)
	}
	if r := abortPanic(tx); r != nil {
		t.Fatalf("aborting a refused Step panicked: %v", r)
	}
	if n := len(d.Merges()); n != 0 {
		t.Errorf("a refused Step recorded %d merges", n)
	}
	if n := idx.Len(); n != 2 {
		t.Errorf("%d points after the abort, want 2", n)
	}
}

// TestMergingStepSeals: a Step that merges is sealed, so Abort panics
// naming its transaction, and a commit keeps the merge.
func TestMergingStepSeals(t *testing.T) {
	idx := kdtree.NewGK()
	idx.Seed(pair)
	d := newDendrogram(len(pair))
	tx := engine.NewTx()
	if merged, err := Step(tx, idx, d, pair[0], func(kdtree.Point) {}); err != nil || !merged {
		t.Fatalf("Step = %v, %v; want a merge", merged, err)
	}
	want := fmt.Sprintf("sealed transaction %d", tx.ID())
	if msg, _ := abortPanic(tx).(string); !strings.Contains(msg, want) {
		t.Errorf("Abort after a merging Step panicked with %q, want a message naming %q", msg, want)
	}
	tx.Commit()
	if got := d.Merges(); len(got) != 1 || got[0] != (Merge{pair[0], pair[1], Midpoint(pair[0], pair[1])}) {
		t.Errorf("Merges = %+v, want the one merge of the pair", got)
	}
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

// TestTwoWorkersDoOneWorkersWork counts work instead of timing it: two
// workers commit at most 1.25× the items of one worker. A worklist on
// which each worker popped its own pushes first requeued non-reciprocal
// points far more often, and committed 1.4–4.9× the items on these inputs.
func TestTwoWorkersDoOneWorkersWork(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pts := workload.RandomPoints(500, 100, seed)
		var commits [3]uint64
		for _, workers := range []int{1, 2} {
			_, res, err := Run(kdtree.NewGK(), pts, engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, workers, err)
			}
			commits[workers] = res.Stats.Committed
		}
		if r := float64(commits[2]) / float64(commits[1]); r > 1.25 {
			t.Errorf("seed %d: two workers committed %d items, %.2f× one worker's %d; want at most 1.25×",
				seed, commits[2], r, commits[1])
		}
	}
}
