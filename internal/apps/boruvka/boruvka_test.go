package boruvka

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"commlat/internal/adt/unionfind"
	"commlat/internal/engine"
	"commlat/internal/workload"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestKruskalVsSequential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		nodes, edges := workload.Mesh(6, 6, seed)
		kw, kc := Kruskal(nodes, edges)
		sw, sc := Sequential(nodes, edges)
		if kc != nodes-1 || sc != nodes-1 {
			t.Fatalf("seed %d: edge counts %d/%d, want %d", seed, kc, sc, nodes-1)
		}
		if !almostEqual(kw, sw) {
			t.Errorf("seed %d: Kruskal %v vs Boruvka %v", seed, kw, sw)
		}
	}
}

func TestKruskalVsSequentialRandomGraph(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		edges := workload.RandomGraph(40, 80, seed)
		kw, kc := Kruskal(40, edges)
		sw, sc := Sequential(40, edges)
		if kc != 39 || sc != 39 || !almostEqual(kw, sw) {
			t.Errorf("seed %d: kruskal %v/%d vs boruvka %v/%d", seed, kw, kc, sw, sc)
		}
	}
}

func ufVariants(n int) map[string]unionfind.Sets {
	return map[string]unionfind.Sets{
		"uf-ml":      unionfind.NewML(n),
		"uf-gk":      unionfind.NewGK(n),
		"uf-generic": unionfind.NewGeneric(n),
	}
}

func TestRunAllVariants(t *testing.T) {
	nodes, edges := workload.Mesh(8, 8, 3)
	want, wantEdges := Kruskal(nodes, edges)
	for name, uf := range ufVariants(nodes) {
		for _, workers := range []int{1, 4} {
			res, err := Run(uf, nodes, edges, engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, workers, err)
			}
			if res.Edges != wantEdges || !almostEqual(res.Weight, want) {
				t.Errorf("%s/%d: MST %v/%d, want %v/%d (stats %+v)",
					name, workers, res.Weight, res.Edges, want, wantEdges, res.Stats)
			}
			// Reuse the variant requires a fresh forest; rebuild.
			uf = ufVariants(nodes)[name]
		}
	}
}

// TestRunFourWorkersOnUnlockedLists is the race detector's look at the
// component lists and the MST log, whose only synchronization across
// transactions is the abstract locks: enough components that four
// workers really overlap on disjoint ones.
func TestRunFourWorkersOnUnlockedLists(t *testing.T) {
	nodes, edges := workload.Mesh(20, 20, 5)
	want, wantEdges := Kruskal(nodes, edges)
	gk := unionfind.NewGK(nodes)
	res, err := Run(gk, nodes, edges, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != wantEdges || !almostEqual(res.Weight, want) {
		t.Errorf("MST %v/%d, want %v/%d (stats %+v)", res.Weight, res.Edges, want, wantEdges, res.Stats)
	}
	if n := gk.LiveWrites(); n != 0 {
		t.Errorf("journal holds %d writes after the run", n)
	}
}

func TestRunDisconnectedGraph(t *testing.T) {
	// Two disjoint triangles: a spanning forest of 4 edges.
	edges := []workload.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3},
		{U: 3, V: 4, W: 4}, {U: 4, V: 5, W: 5}, {U: 3, V: 5, W: 6},
	}
	want, wantEdges := Kruskal(6, edges)
	res, err := Run(unionfind.NewGK(6), 6, edges, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != wantEdges || !almostEqual(res.Weight, want) {
		t.Errorf("forest %v/%d, want %v/%d", res.Weight, res.Edges, want, wantEdges)
	}
}

func TestProfileVariants(t *testing.T) {
	nodes, edges := workload.Mesh(8, 8, 11)
	want, wantEdges := Kruskal(nodes, edges)
	results := map[string]ProfileResult{}
	for name, uf := range ufVariants(nodes) {
		res, err := Profile(uf, nodes, edges)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Edges != wantEdges || !almostEqual(res.Weight, want) {
			t.Errorf("%s: MST %v/%d, want %v/%d", name, res.Weight, res.Edges, want, wantEdges)
		}
		results[name] = res
	}
	ml, gk := results["uf-ml"], results["uf-gk"]
	// The paper's curious observation: general gatekeeping offers no
	// parallelism advantage here (Boruvka performs no interfering finds),
	// so the two profiles should be in the same ballpark. We assert only
	// that both expose substantial parallelism.
	if ml.AvgParallelism < 2 || gk.AvgParallelism < 2 {
		t.Errorf("parallelism too low: ml=%v gk=%v", ml.AvgParallelism, gk.AvgParallelism)
	}
	t.Logf("uf-ml: path=%d par=%.2f; uf-gk: path=%d par=%.2f",
		ml.CriticalPath, ml.AvgParallelism, gk.CriticalPath, gk.AvgParallelism)
}

func TestCompEdgesGuarding(t *testing.T) {
	comps := newCompEdges(4, []workload.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 2}}, 1)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if _, err := comps.get(tx1, 0); err != nil {
		t.Fatal(err)
	}
	// Reads share.
	if _, err := comps.get(tx2, 0); err != nil {
		t.Fatalf("concurrent get should share: %v", err)
	}
	// A merge touching component 0 conflicts with the readers.
	tx3 := engine.NewTx()
	if err := comps.merge(tx3, 1, 0, nil, nil); !engine.IsConflict(err) {
		t.Fatalf("merge under readers should conflict, got %v", err)
	}
	// A merge of unrelated components proceeds, and seals tx3: it can
	// only commit.
	if err := comps.merge(tx3, 3, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
}

func TestStarGraph(t *testing.T) {
	// A star: every leaf's best edge goes to the hub; heavy contention on
	// the hub component exercises retry paths.
	var edges []workload.Edge
	for i := int64(1); i <= 12; i++ {
		edges = append(edges, workload.Edge{U: 0, V: i, W: float64(i)})
	}
	want, wantEdges := Kruskal(13, edges)
	for name, uf := range ufVariants(13) {
		res, err := Run(uf, 13, edges, engine.Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Edges != wantEdges || !almostEqual(res.Weight, want) {
			t.Errorf("%s: %v/%d, want %v/%d", name, res.Weight, res.Edges, want, wantEdges)
		}
	}
}

// stepOnce runs one step on item in a pooled transaction and commits or
// aborts it, reporting whether the step merged.
func stepOnce(t *testing.T, uf unionfind.Sets, comps *compEdges, mst *mstLog, item int64, commit bool) bool {
	t.Helper()
	tx := engine.GetTx()
	merged, err := step(tx, uf, comps, mst, item, func(int64) {})
	if err != nil {
		t.Fatal(err)
	}
	if commit {
		tx.Commit()
	} else {
		tx.Abort()
	}
	engine.PutTx(tx)
	return merged
}

// TestStepAllocatesNothing pins a warmed step to no allocation at all:
// the survivors go to a reused buffer, the merged list to the worker's
// arena chunk and the edge to the presized MST log. A merging step is
// sealed and must commit, so each one merges a pair of its own. A stale
// step allocates nothing either.
func TestStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops transactions and buffers at random under -race")
	}
	const pairs = 256
	edges := make([]workload.Edge, pairs)
	for k := range edges {
		edges[k] = workload.Edge{U: int64(2 * k), V: int64(2*k + 1), W: float64(k + 1)}
	}
	uf := unionfind.NewGK(2 * pairs)
	comps := newCompEdges(2*pairs, edges, 1)
	mst := &mstLog{edges: make([]workload.Edge, 0, pairs)}
	next := 0
	merging := func() {
		if !stepOnce(t, uf, comps, mst, int64(2*next), true) {
			t.Fatalf("step(%d) did not merge", 2*next)
		}
		next++
	}
	merging()
	if allocs := testing.AllocsPerRun(100, merging); allocs != 0 {
		t.Errorf("a merging step allocates %v, want 0", allocs)
	}
	stale := func() {
		if stepOnce(t, uf, comps, mst, 0, false) {
			t.Fatal("a step on a merged-away component merged")
		}
	}
	stale()
	if allocs := testing.AllocsPerRun(100, stale); allocs != 0 {
		t.Errorf("a stale step allocates %v, want 0", allocs)
	}
}

// sameList reports whether a and b are one slice: same array, length
// and capacity.
func sameList(a, b []workload.Edge) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// TestCompEdgesListsInInputOrder: the lists carved out of one array hold
// each component's edges in input order, oriented away from it, and end
// at their own capacity.
func TestCompEdgesListsInInputOrder(t *testing.T) {
	nodes, edges := workload.Mesh(5, 4, 7)
	want := make([][]workload.Edge, nodes)
	for _, e := range edges {
		want[e.U] = append(want[e.U], e)
		want[e.V] = append(want[e.V], workload.Edge{U: e.V, V: e.U, W: e.W})
	}
	comps := newCompEdges(nodes, edges, 1)
	for r, got := range comps.edges {
		if fmt.Sprint(got) != fmt.Sprint(want[r]) || cap(got) != len(got) {
			t.Errorf("edges[%d] = %v (cap %d), want %v", r, got, cap(got), want[r])
		}
	}
}

// span is the address range a list's array backs.
func span(l []workload.Edge) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(l)))
	return lo, lo + uintptr(cap(l))*unsafe.Sizeof(workload.Edge{})
}

// TestArenaListsAreDisjoint: lists merged on two workers are carved
// from their own arenas with cap == len, and no two lists share memory,
// whichever worker carved them.
func TestArenaListsAreDisjoint(t *testing.T) {
	nodes, edges := workload.Mesh(4, 4, 2)
	comps := newCompEdges(nodes, edges, 2)
	var carved [][]workload.Edge
	for l := int64(0); l < int64(nodes)-1; l++ {
		tx := engine.NewTx()
		tx.SetWorker(int(l % 2))
		if err := comps.merge(tx, l+1, l, comps.edges[l+1], comps.edges[l]); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		merged := comps.edges[l+1]
		if cap(merged) != len(merged) || len(merged) == 0 {
			t.Fatalf("merge into %d carved len %d cap %d", l+1, len(merged), cap(merged))
		}
		carved = append(carved, merged)
	}
	for w := range comps.arenas {
		if comps.arenas[w].free == nil {
			t.Errorf("worker %d carved nothing", w)
		}
	}
	for i, a := range carved {
		alo, ahi := span(a)
		for _, b := range carved[i+1:] {
			if blo, bhi := span(b); alo < bhi && blo < ahi {
				t.Fatalf("lists %v and %v overlap", a, b)
			}
		}
	}
	if got := len(comps.edges[nodes-1]); got != 2*len(edges) {
		t.Errorf("the last winner holds %d edges, want all %d", got, 2*len(edges))
	}
}

// TestArenaOversizedListGetsOwnChunk: a list longer than a chunk gets an
// array of its own, and the chunk in use keeps carving where it was.
func TestArenaOversizedListGetsOwnChunk(t *testing.T) {
	var a arena
	const size = 8
	first := a.carve(3, size)
	tail := a.free
	big := a.carve(size+1, size)
	if len(big) != size+1 || cap(big) != size+1 {
		t.Fatalf("oversized list: len %d cap %d, want %d", len(big), cap(big), size+1)
	}
	if !sameList(a.free, tail) {
		t.Fatal("an oversized list replaced the current chunk")
	}
	next := a.carve(2, size)
	if &next[0] != &tail[0] {
		t.Error("the chunk did not carve on after an oversized list")
	}
	for _, l := range [][]workload.Edge{first, next} {
		lo, hi := span(l)
		if blo, bhi := span(big); lo < bhi && blo < hi {
			t.Errorf("the oversized list overlaps %v's chunk", l)
		}
	}
	// A chunk that cannot hold the next list is left to its lists.
	full := a.carve(size-4, size)
	if &full[0] == &tail[2] {
		t.Error("a list of 4 was carved from a chunk with 3 edges left")
	}
}

// TestRefusedMergeCarvesNothing: a merge refused its exclusive grant
// takes nothing from the arena and leaves both lists as they were.
func TestRefusedMergeCarvesNothing(t *testing.T) {
	edges := []workload.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}}
	comps := newCompEdges(3, edges, 1)
	reader, merger := engine.NewTx(), engine.NewTx()
	defer reader.Abort()
	defer merger.Abort()
	if _, err := comps.get(reader, 0); err != nil {
		t.Fatal(err)
	}
	oldW, oldL := comps.edges[1], comps.edges[0]
	if err := comps.merge(merger, 1, 0, oldW, oldL); !engine.IsConflict(err) {
		t.Fatalf("merge under a reader: %v, want a conflict", err)
	}
	if comps.arenas[0].free != nil {
		t.Errorf("a refused merge carved a chunk (%d edges left)", len(comps.arenas[0].free))
	}
	if !sameList(comps.edges[1], oldW) || !sameList(comps.edges[0], oldL) {
		t.Errorf("a refused merge changed the lists to %v and %v", comps.edges[1], comps.edges[0])
	}
}

// abortPanic aborts tx and returns what the abort panicked with, or
// nil.
func abortPanic(tx *engine.Tx) (r any) {
	defer func() { r = recover() }()
	tx.Abort()
	return nil
}

// TestMergingStepSeals: a step that merges is sealed, so Abort panics
// naming its transaction, and a commit keeps the edge.
func TestMergingStepSeals(t *testing.T) {
	edges := []workload.Edge{{U: 0, V: 1, W: 1}}
	comps, mst := newCompEdges(2, edges, 1), &mstLog{}
	tx := engine.NewTx()
	merged, err := step(tx, unionfind.NewGK(2), comps, mst, 0, func(int64) {})
	if err != nil || !merged {
		t.Fatalf("step(0) = %v, %v; want a merge", merged, err)
	}
	want := fmt.Sprintf("sealed transaction %d", tx.ID())
	if msg, _ := abortPanic(tx).(string); !strings.Contains(msg, want) {
		t.Errorf("Abort after a merging step panicked with %q, want a message naming %q", msg, want)
	}
	tx.Commit()
	if w, n := mst.sum(); n != 1 || w != 1 {
		t.Errorf("MST log holds %v/%d, want 1/1", w, n)
	}
}

// TestRefusedStepStaysUnsealed: a step refused at its merge has sealed
// nothing, so it aborts cleanly, leaving the lists as they were and the
// MST log empty.
func TestRefusedStepStaysUnsealed(t *testing.T) {
	edges := []workload.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}}
	comps, mst := newCompEdges(3, edges, 1), &mstLog{}
	reader, tx := engine.NewTx(), engine.NewTx()
	defer reader.Abort()
	if _, err := comps.get(reader, 0); err != nil {
		t.Fatal(err)
	}
	oldW, oldL := comps.edges[1], comps.edges[0]
	// Step 1 unions 1 with 0 and must merge 0 away under the reader.
	if _, err := step(tx, unionfind.NewGK(3), comps, mst, 1, func(int64) {}); !engine.IsConflict(err) {
		t.Fatalf("step(1) under a reader of 0: %v, want a conflict", err)
	}
	if r := abortPanic(tx); r != nil {
		t.Fatalf("aborting a refused step panicked: %v", r)
	}
	if !sameList(comps.edges[1], oldW) || !sameList(comps.edges[0], oldL) {
		t.Errorf("a refused step changed the lists to %v and %v", comps.edges[1], comps.edges[0])
	}
	if _, n := mst.sum(); n != 0 {
		t.Errorf("a refused step logged %d MST edges", n)
	}
}

// TestMergeOutsideArenasPanics: a worker index with no arena is a bug,
// not a reason to allocate elsewhere.
func TestMergeOutsideArenasPanics(t *testing.T) {
	comps := newCompEdges(2, []workload.Edge{{U: 0, V: 1, W: 1}}, 1)
	tx := engine.NewTx()
	defer tx.Abort()
	tx.SetWorker(1)
	defer func() {
		if recover() == nil {
			t.Error("a merge on worker 1 of a one-arena compEdges did not panic")
		}
	}()
	comps.merge(tx, 1, 0, comps.edges[1], comps.edges[0])
}

// TestRunWorkerCounts: Workers 0 (GOMAXPROCS, the engine's own rule)
// and 4 size the arenas to the workers Run starts, and both match
// Kruskal.
func TestRunWorkerCounts(t *testing.T) {
	nodes, edges := workload.Mesh(12, 12, 9)
	want, wantEdges := Kruskal(nodes, edges)
	for _, workers := range []int{0, 4} {
		res, err := Run(unionfind.NewGK(nodes), nodes, edges, engine.Options{Workers: workers})
		if err != nil {
			t.Fatalf("Workers %d: %v", workers, err)
		}
		if res.Edges != wantEdges || !almostEqual(res.Weight, want) {
			t.Errorf("Workers %d: MST %v/%d, want %v/%d", workers, res.Weight, res.Edges, want, wantEdges)
		}
	}
}

// TestRunAllocationsDoNotScaleWithMerges: a 64×64 mesh merges 4,095
// times and a 16×16 one 255 times, yet Run allocates within a small
// constant of the same count on both: arena chunks grow with the input,
// not with the merges.
func TestRunAllocationsDoNotScaleWithMerges(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops transactions and buffers at random under -race")
	}
	allocs := func(side int) float64 {
		nodes, edges := workload.Mesh(side, side, 4)
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(unionfind.NewGK(nodes), nodes, edges, engine.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// About 100 and 130 here: the arena chunks, the union-find's
	// journal and the worklist grow with the mesh. Carving one list per
	// merge put them about 3,900 apart.
	const slack = 64
	if small, large := allocs(16), allocs(64); large > small+slack {
		t.Errorf("Run allocates %v on a 64×64 mesh and %v on a 16×16 one: more than %d apart", large, small, slack)
	}
}

// countingFinds is a union-find that counts its Find calls: a measure of
// a run's union-find work that does not depend on the clock.
type countingFinds struct {
	unionfind.Sets
	finds atomic.Int64
}

func (c *countingFinds) Find(tx *engine.Tx, a int64) (int64, error) {
	c.finds.Add(1)
	return c.Sets.Find(tx, a)
}

// TestTwoWorkersDoOneWorkersWork counts work instead of timing it: two
// workers make at most 1.25× one worker's Find calls. A worklist on which
// each worker popped its own pushes first kept growing one component and
// rescanning its edge list, and made 19–29× the calls on these meshes.
func TestTwoWorkersDoOneWorkersWork(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		nodes, edges := workload.Mesh(64, 64, seed)
		var finds [3]int64
		for _, workers := range []int{1, 2} {
			uf := &countingFinds{Sets: unionfind.NewGK(nodes)}
			if _, err := Run(uf, nodes, edges, engine.Options{Workers: workers}); err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, workers, err)
			}
			finds[workers] = uf.finds.Load()
		}
		if r := float64(finds[2]) / float64(finds[1]); r > 1.25 {
			t.Errorf("seed %d: two workers made %d Find calls, %.2f× one worker's %d; want at most 1.25×",
				seed, finds[2], r, finds[1])
		}
	}
}
