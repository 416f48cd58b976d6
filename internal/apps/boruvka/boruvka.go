// Package boruvka implements Borůvka's minimum-spanning-tree algorithm
// over a union-find structure, the paper's general-gatekeeping case
// study (§5): each iteration picks a component, finds its lightest
// outgoing edge, merges the two components and adds the edge to the MST.
// The union-find variant (uf-ml, uf-gk or the generic engine) is the
// conflict detector under study; component edge lists and the MST log
// are boosted auxiliary structures, serialized by their own abstract
// locks and mutex. An iteration writes them only after its last
// refusable call, the merge's exclusive grant, and seals its transaction
// there (engine.Tx.Seal), so neither structure keeps an undo.
package boruvka

import (
	"sort"
	"sync"

	"commlat/internal/abslock"
	"commlat/internal/adt/unionfind"
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/parameter"
	"commlat/internal/workload"
)

// compEdges tracks, per live component representative, the candidate
// outgoing edges (with lazy deletion of intra-component edges). It is a
// boosted auxiliary structure (the paper boosts everything except the
// structure under study): a synthesized abstract-locking scheme over a
// tiny get/merge specification serializes iterations that touch the same
// component lists, so the replace-style merge bookkeeping never races.
//
// The locks are the only synchronization. edges is indexed by component
// and never resized, and CompsSpec lets two invocations run together
// only when no component one of them writes is a component the other
// names, so they touch different slice elements — different memory,
// which a map's shared buckets would not be. edges[r] is read and
// written only between the grant of a lock on r and its release at the
// transaction's end. A grant after a release is a happens-before edge: a
// compare-and-swap or a mutex in the lock manager. arenas[w] is touched
// only by engine worker w's goroutine.
type compEdges struct {
	mgr    *abslock.Manager
	hGet   *abslock.Method // compiled acquisitions of get
	hMerge *abslock.Method // and of merge
	edges  [][]workload.Edge
	arenas []arena // by Tx.Worker: where merged lists are carved
	chunk  int     // edges per arena chunk
}

// arena is one worker's bump allocator for merged lists, so two
// commuting merges on different workers share no allocator state; the
// pad keeps two workers' arenas off one cache line. A carved list is
// written once, before merge installs it, and never again: a chunk is
// neither mutated behind a list nor recycled, only dropped by the
// collector once no list in it is reachable.
type arena struct {
	free []workload.Edge // the current chunk's uncarved tail
	_    [40]byte
}

// carve returns a list of n edges with cap == len, so it cannot be
// appended into its neighbour. When the chunk is full a new one of size
// edges is started; a list longer than a chunk gets an array of its own.
func (a *arena) carve(n, size int) []workload.Edge {
	if n > len(a.free) {
		if n > size {
			return make([]workload.Edge, n)
		}
		a.free = make([]workload.Edge, size)
	}
	l := a.free[:n:n]
	a.free = a.free[n:]
	return l
}

// CompsSpec is the component lists' specification: scans of the same
// component share; merges conflict with any access to either component
// involved.
func CompsSpec() *core.Spec {
	return core.ReadWrite(&core.ADTSig{Name: "compedges", Methods: []core.MethodSig{
		{Name: "get", Params: []string{"r"}, HasRet: true},
		{Name: "merge", Params: []string{"w", "l"}},
	}}, "get")
}

// compsScheme is CompsSpec's reduced scheme, synthesized once.
var compsScheme = abslock.Shipped(CompsSpec)

// newCompEdges builds the n components' lists with one arena per engine
// worker. An arena chunk is the size of the initial lists, 2·len(edges)
// edges, and at least 1024.
func newCompEdges(n int, edges []workload.Edge, workers int) *compEdges {
	mgr := abslock.NewManager(compsScheme(), nil)
	c := &compEdges{
		mgr:    mgr,
		hGet:   mgr.Method("get"),
		hMerge: mgr.Method("merge"),
		edges:  make([][]workload.Edge, n),
		arenas: make([]arena, workers),
		chunk:  max(2*len(edges), 1024),
	}
	// Every list is carved out of one array, capped at its own end;
	// lists are replaced, never appended to, so they cannot overlap.
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	all := make([]workload.Edge, 2*len(edges))
	lo := 0
	for r, d := range deg {
		c.edges[r] = all[lo : lo : lo+d]
		lo += d
	}
	for _, e := range edges {
		c.edges[e.U] = append(c.edges[e.U], e)
		c.edges[e.V] = append(c.edges[e.V], workload.Edge{U: e.V, V: e.U, W: e.W})
	}
	return c
}

// get returns component r's candidate list under a read lock on r.
func (c *compEdges) get(tx *engine.Tx, r int64) ([]workload.Edge, error) {
	if err := c.mgr.Acquire(tx, c.hGet, core.VInt(r)); err != nil {
		return nil, err
	}
	return c.edges[r], nil
}

// merge replaces the winner's list with surviving followed by other and
// deletes the loser's. It must be its caller's last refusable call: once
// both components are exclusively locked it carves the new list from
// tx's worker's arena, seals tx and installs the list with no undo, so a
// refused merge carves and writes nothing and a granted one can only
// commit.
func (c *compEdges) merge(tx *engine.Tx, winner, loser int64, surviving, other []workload.Edge) error {
	if err := c.mgr.Acquire(tx, c.hMerge, core.VInt(winner), core.VInt(loser)); err != nil {
		return err
	}
	merged := c.concat(tx.Worker(), surviving, other)
	tx.Seal()
	c.edges[winner], c.edges[loser] = merged, nil
	return nil
}

// concat carves a list of a followed by b from worker w's arena.
func (c *compEdges) concat(w int, a, b []workload.Edge) []workload.Edge {
	l := c.arenas[w].carve(len(a)+len(b), c.chunk)
	copy(l[copy(l, a):], b)
	return l
}

// seqGet and seqMerge are the lock-free variants for the sequential
// baseline.
func (c *compEdges) seqGet(r int64) []workload.Edge { return c.edges[r] }

func (c *compEdges) seqMerge(winner, loser int64, surviving, other []workload.Edge) {
	c.edges[winner], c.edges[loser] = c.concat(0, surviving, other), nil
}

// mstLog accumulates accepted edges. A step adds its edge only after its
// sealing merge, so every edge logged belongs to a transaction that
// commits.
type mstLog struct {
	mu    sync.Mutex
	edges []workload.Edge
}

// add logs e as accepted.
func (l *mstLog) add(e workload.Edge) {
	l.mu.Lock()
	l.edges = append(l.edges, e)
	l.mu.Unlock()
}

// sum returns the logged edges' total weight and count.
func (l *mstLog) sum() (weight float64, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.edges {
		weight += e.W
	}
	return weight, len(l.edges)
}

// Result summarizes an MST computation.
type Result struct {
	Weight float64
	Edges  int
	Stats  engine.Stats
}

// survivors holds the reused buffers a step collects a component's
// surviving edges in; with the merged list carved from an arena, a
// warmed step allocates nothing.
var survivors = sync.Pool{New: func() any { return new([]workload.Edge) }}

// step is one Borůvka iteration on component representative item.
func step(tx *engine.Tx, uf unionfind.Sets, comps *compEdges, mst *mstLog,
	item int64, push func(int64)) (bool, error) {
	r, err := uf.Find(tx, item)
	if err != nil {
		return false, err
	}
	if r != item {
		return false, nil // stale: this component was merged away
	}
	edges, err := comps.get(tx, r)
	if err != nil {
		return false, err
	}
	best := workload.Edge{W: -1}
	var bestRep int64
	buf := survivors.Get().(*[]workload.Edge)
	defer survivors.Put(buf)
	surviving := (*buf)[:0]
	for _, e := range edges {
		rv, err := uf.Find(tx, e.V)
		if err != nil {
			return false, err
		}
		if rv == r {
			continue // intra-component: lazily dropped
		}
		surviving = append(surviving, e)
		if best.W < 0 || e.W < best.W {
			best = e
			bestRep = rv
		}
	}
	*buf = surviving
	if best.W < 0 {
		return false, nil // no outgoing edge: spanning tree of this component done
	}
	if _, err := uf.Union(tx, r, bestRep); err != nil {
		return false, err
	}
	// Static priorities: the higher-numbered representative wins.
	winner, loser := r, bestRep
	if winner < loser {
		winner, loser = loser, winner
	}
	// Merge candidate lists: r's surviving outgoing edges plus the other
	// side's current list (whose intra edges are culled lazily on later
	// scans), stored under the winning representative.
	otherEdges, err := comps.get(tx, bestRep)
	if err != nil {
		return false, err
	}
	if err := comps.merge(tx, winner, loser, surviving, otherEdges); err != nil {
		return false, err
	}
	// Sealed: from here the step cannot be refused, and writes no undo.
	mst.add(best)
	push(winner)
	return true, nil
}

// Run computes the MST weight of the graph speculatively using the given
// union-find variant.
func Run(uf unionfind.Sets, nodes int, edges []workload.Edge, opts engine.Options) (Result, error) {
	comps, mst, items := prepare(nodes, edges, opts.NumWorkers())
	wl := engine.NewWorklist(items...)
	stats, err := engine.Run(wl, opts, func(tx *engine.Tx, item int64, wl *engine.Worklist[int64]) error {
		_, err := step(tx, uf, comps, mst, item, func(v int64) { wl.Push(v) })
		return err
	})
	res := Result{Stats: stats}
	res.Weight, res.Edges = mst.sum()
	return res, err
}

// prepare builds what Run and Profile start from: the component lists
// with one arena per worker, an MST log with room for a spanning tree's
// at most nodes−1 edges, and every node as an item.
func prepare(nodes int, edges []workload.Edge, workers int) (*compEdges, *mstLog, []int64) {
	items := make([]int64, nodes)
	for i := range items {
		items[i] = int64(i)
	}
	return newCompEdges(nodes, edges, workers), &mstLog{edges: make([]workload.Edge, 0, nodes)}, items
}

// ProfileResult bundles a parallelism profile with the MST result.
type ProfileResult struct {
	parameter.Result
	Weight float64
	Edges  int
}

// Profile measures the parallelism of the computation under the given
// union-find variant (Table 1's uf-ml vs uf-gk rows).
//
// The profiler runs every transaction on one goroutine as worker 0, so
// one arena serves it.
func Profile(uf unionfind.Sets, nodes int, edges []workload.Edge) (ProfileResult, error) {
	comps, mst, items := prepare(nodes, edges, 1)
	res, err := parameter.Profile(items, func(tx *engine.Tx, item int64, push func(int64)) (bool, error) {
		return step(tx, uf, comps, mst, item, push)
	})
	out := ProfileResult{Result: res}
	out.Weight, out.Edges = mst.sum()
	return out, err
}

// Sequential computes the MST weight with plain Borůvka (no conflict
// detection): the serial baseline for overhead measurements.
func Sequential(nodes int, edges []workload.Edge) (float64, int) {
	f := unionfind.NewForest(nodes)
	comps := newCompEdges(nodes, edges, 1)
	queue := make([]int64, nodes)
	for i := range queue {
		queue[i] = int64(i)
	}
	buf := survivors.Get().(*[]workload.Edge)
	defer survivors.Put(buf)
	var weight float64
	count := 0
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		if f.FindNoCompress(item) != item {
			continue
		}
		r := item
		best := workload.Edge{W: -1}
		var bestRep int64
		surviving := (*buf)[:0]
		for _, e := range comps.seqGet(r) {
			rv := f.Find(e.V)
			if rv == r {
				continue
			}
			surviving = append(surviving, e)
			if best.W < 0 || e.W < best.W {
				best, bestRep = e, rv
			}
		}
		*buf = surviving
		if best.W < 0 {
			continue
		}
		f.Union(r, bestRep)
		winner, loser := r, bestRep
		if winner < loser {
			winner, loser = loser, winner
		}
		comps.seqMerge(winner, loser, surviving, comps.seqGet(bestRep))
		weight += best.W
		count++
		queue = append(queue, winner)
	}
	return weight, count
}

// Kruskal is an independent MST oracle (sort + plain union-find).
func Kruskal(nodes int, edges []workload.Edge) (float64, int) {
	sorted := append([]workload.Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].W < sorted[j].W })
	f := unionfind.NewForest(nodes)
	var weight float64
	count := 0
	for _, e := range sorted {
		if f.Union(e.U, e.V) {
			weight += e.W
			count++
		}
	}
	return weight, count
}
