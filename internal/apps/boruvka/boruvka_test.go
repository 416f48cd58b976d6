package boruvka

import (
	"fmt"
	"math"
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
	var gk, ml ProfileResult
	var err error
	if ml, err = Profile(unionfind.NewML(nodes), nodes, edges); err != nil {
		t.Fatal(err)
	}
	if gk, err = Profile(unionfind.NewGK(nodes), nodes, edges); err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]ProfileResult{"uf-ml": ml, "uf-gk": gk} {
		if res.Edges != wantEdges || !almostEqual(res.Weight, want) {
			t.Errorf("%s: MST %v/%d, want %v/%d", name, res.Weight, res.Edges, want, wantEdges)
		}
	}
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
	defer tx3.Abort()
	if err := comps.merge(tx3, 1, 0, nil, nil); !engine.IsConflict(err) {
		t.Fatalf("merge under readers should conflict, got %v", err)
	}
	// A merge of unrelated components proceeds.
	if err := comps.merge(tx3, 3, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMSTLogTombstones(t *testing.T) {
	l := &mstLog{}
	loses, wins := engine.NewTx(), engine.NewTx()
	l.add(loses, workload.Edge{W: 1})
	l.add(wins, workload.Edge{W: 2})
	l.add(loses, workload.Edge{W: 3})
	loses.Abort()
	wins.Commit()
	got := l.committed()
	if len(got) != 1 || got[0].W != 2 {
		t.Errorf("committed = %+v", got)
	}
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
// arena chunk and the merge's undo to the component's saved cell. A
// stale step allocates nothing either.
func TestStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops transactions and buffers at random under -race")
	}
	edges := []workload.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3}}
	uf := unionfind.NewGK(3)
	comps := newCompEdges(3, edges, 1)
	mst := &mstLog{edges: make([]mstEdge, 0, 256)} // aborted entries stay, as tombstones
	merging := func() {
		if !stepOnce(t, uf, comps, mst, 0, false) {
			t.Fatal("step(0) did not merge")
		}
	}
	merging()
	if allocs := testing.AllocsPerRun(100, merging); allocs != 0 {
		t.Errorf("a merging step allocates %v, want 0", allocs)
	}
	if !stepOnce(t, uf, comps, mst, 0, true) {
		t.Fatal("step(0) did not merge")
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

// savedEmpty reports a saved cell that still holds anything.
func savedEmpty(c *compEdges) error {
	for l, s := range c.saved {
		if s.oldW != nil || s.oldL != nil || s.winner != 0 || s.next != 0 {
			return fmt.Errorf("saved[%d] = %+v after its transaction ended", l, s)
		}
	}
	return nil
}

// TestMergeUndoRestoresLists: aborting a merging step puts back exactly
// the lists it replaced, whether the step's own component won (item 1)
// or its neighbour's did (item 0); committing leaves the merged list.
// Either way the saved cells keep no list once the transaction has
// ended.
func TestMergeUndoRestoresLists(t *testing.T) {
	edges := []workload.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3}}
	const winner, loser = 1, 0
	for _, item := range []int64{0, 1} {
		comps := newCompEdges(3, edges, 1)
		uf, mst := unionfind.NewGK(3), &mstLog{}
		oldW, oldL := comps.edges[winner], comps.edges[loser]
		if !stepOnce(t, uf, comps, mst, item, false) {
			t.Fatalf("step(%d) did not merge", item)
		}
		if !sameList(comps.edges[winner], oldW) || !sameList(comps.edges[loser], oldL) {
			t.Errorf("step(%d) aborted: lists %v and %v, want %v and %v",
				item, comps.edges[winner], comps.edges[loser], oldW, oldL)
		}
		if err := savedEmpty(comps); err != nil {
			t.Errorf("step(%d) aborted: %v", item, err)
		}
		if !stepOnce(t, uf, comps, mst, item, true) {
			t.Fatalf("step(%d) did not merge", item)
		}
		if n := len(comps.edges[winner]); n != 4 || comps.edges[loser] != nil {
			t.Errorf("step(%d) committed: winner holds %d edges, loser %v; want 4 and nil",
				item, n, comps.edges[loser])
		}
		if err := savedEmpty(comps); err != nil {
			t.Errorf("step(%d) committed: %v", item, err)
		}
	}
}

// TestMergeUndoChain: one transaction's merges are undone newest first,
// including two into the same winner.
func TestMergeUndoChain(t *testing.T) {
	edges := []workload.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}}
	comps := newCompEdges(4, edges, 1)
	var before [4][]workload.Edge
	copy(before[:], comps.edges)
	tx := engine.NewTx()
	for _, l := range []int64{0, 1, 2} {
		if err := comps.merge(tx, 3, l, comps.edges[3], comps.edges[l]); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(comps.edges[3]); n != 6 {
		t.Fatalf("winner holds %d edges after three merges, want 6", n)
	}
	tx.Abort()
	for r := range before {
		if !sameList(comps.edges[r], before[r]) {
			t.Errorf("edges[%d] = %v after abort, want %v", r, comps.edges[r], before[r])
		}
	}
	if err := savedEmpty(comps); err != nil {
		t.Error(err)
	}
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
