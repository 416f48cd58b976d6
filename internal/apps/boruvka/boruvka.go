// Package boruvka implements Borůvka's minimum-spanning-tree algorithm
// over a union-find structure, the paper's general-gatekeeping case
// study (§5): each iteration picks a component, finds its lightest
// outgoing edge, merges the two components and adds the edge to the MST.
// The union-find variant (uf-ml, uf-gk or the generic engine) is the
// conflict detector under study; component edge lists and the MST log
// are boosted auxiliary structures whose accesses are serialized by the
// union-find operations each iteration performs first.
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
// The locks are the only synchronization. edges is indexed by
// representative and never resized, and compsSpec lets two invocations
// run together only when no component one of them writes is a component
// the other names, so they touch different slice elements — different
// memory, which a map's shared buckets would not be. edges[r] is read
// and written only between the grant of a lock on r and its release at
// the transaction's end (a merge's undo runs before the release), and a
// grant after a release is a happens-before edge: a compare-and-swap or
// a mutex in the lock manager.
type compEdges struct {
	mgr    *abslock.Manager
	hGet   *abslock.Method // compiled acquisitions of get
	hMerge *abslock.Method // and of merge
	edges  [][]workload.Edge
}

// compsSpec: scans of the same component share; merges conflict with any
// access to either component involved.
func compsSpec() *core.Spec {
	sig := &core.ADTSig{Name: "compedges", Methods: []core.MethodSig{
		{Name: "get", Params: []string{"r"}, HasRet: true},
		{Name: "merge", Params: []string{"w", "l"}},
	}}
	s := core.NewSpec(sig)
	s.Set("get", "get", core.True())
	s.Set("get", "merge", core.And(
		core.Ne(core.Arg1(0), core.Arg2(0)),
		core.Ne(core.Arg1(0), core.Arg2(1)),
	))
	s.Set("merge", "merge", core.And(
		core.Ne(core.Arg1(0), core.Arg2(0)),
		core.Ne(core.Arg1(0), core.Arg2(1)),
		core.Ne(core.Arg1(1), core.Arg2(0)),
		core.Ne(core.Arg1(1), core.Arg2(1)),
	))
	return s
}

func newCompEdges(n int, edges []workload.Edge) *compEdges {
	scheme, err := abslock.Synthesize(compsSpec())
	if err != nil {
		panic(err) // the comps spec is SIMPLE by construction
	}
	mgr := abslock.NewManager(scheme.Reduce(), nil)
	c := &compEdges{
		mgr:    mgr,
		hGet:   mgr.Method("get"),
		hMerge: mgr.Method("merge"),
		edges:  make([][]workload.Edge, n),
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

// merge replaces the winner's list and deletes the loser's, registering
// an exact undo with tx. Both components are exclusively locked.
func (c *compEdges) merge(tx *engine.Tx, winner, loser int64, merged []workload.Edge) error {
	if err := c.mgr.Acquire(tx, c.hMerge, core.VInt(winner), core.VInt(loser)); err != nil {
		return err
	}
	oldW, oldL := c.edges[winner], c.edges[loser]
	c.edges[winner], c.edges[loser] = merged, nil
	tx.OnUndo(func() { c.edges[winner], c.edges[loser] = oldW, oldL })
	return nil
}

// seqGet and seqMerge are the lock-free variants for the sequential
// baseline.
func (c *compEdges) seqGet(r int64) []workload.Edge { return c.edges[r] }

func (c *compEdges) seqMerge(winner, loser int64, merged []workload.Edge) {
	c.edges[winner], c.edges[loser] = merged, nil
}

// mstLog accumulates accepted edges with abort tombstones. The entries of
// one transaction are chained newest first from its Tx.Attach word, so an
// abort tombstones them without a closure or a node per edge.
type mstLog struct {
	mu    sync.Mutex
	edges []mstEdge
}

type mstEdge struct {
	e       workload.Edge
	prev    uint64 // the same transaction's previous entry: index+1, 0 = none
	aborted bool
}

// add logs e as accepted by tx, to be tombstoned should tx abort.
func (l *mstLog) add(tx *engine.Tx, e workload.Edge) {
	head, isNew := tx.Attach(l)
	if isNew {
		tx.OnUndoer(l)
	}
	l.mu.Lock()
	l.edges = append(l.edges, mstEdge{e: e, prev: *head})
	*head = uint64(len(l.edges))
	l.mu.Unlock()
}

// UndoTx tombstones the edges tx added.
func (l *mstLog) UndoTx(tx *engine.Tx) {
	l.mu.Lock()
	for i := *tx.AttachedWord(l); i != 0; i = l.edges[i-1].prev {
		l.edges[i-1].aborted = true
	}
	l.mu.Unlock()
}

func (l *mstLog) committed() []workload.Edge {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []workload.Edge
	for i := range l.edges {
		if me := &l.edges[i]; !me.aborted {
			out = append(out, me.e)
		}
	}
	return out
}

// Result summarizes an MST computation.
type Result struct {
	Weight float64
	Edges  int
	Stats  engine.Stats
}

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
	surviving := edges[:0:0]
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
	merged := append(append([]workload.Edge(nil), surviving...), otherEdges...)
	if err := comps.merge(tx, winner, loser, merged); err != nil {
		return false, err
	}
	mst.add(tx, best)
	push(winner)
	return true, nil
}

// Run computes the MST weight of the graph speculatively using the given
// union-find variant.
func Run(uf unionfind.Sets, nodes int, edges []workload.Edge, opts engine.Options) (Result, error) {
	comps := newCompEdges(nodes, edges)
	mst := &mstLog{}
	items := make([]int64, nodes)
	for i := range items {
		items[i] = int64(i)
	}
	wl := engine.NewWorklist(items...)
	stats, err := engine.Run(wl, opts, func(tx *engine.Tx, item int64, wl *engine.Worklist[int64]) error {
		_, err := step(tx, uf, comps, mst, item, func(v int64) { wl.Push(v) })
		return err
	})
	res := Result{Stats: stats}
	for _, e := range mst.committed() {
		res.Weight += e.W
		res.Edges++
	}
	return res, err
}

// ProfileResult bundles a parallelism profile with the MST result.
type ProfileResult struct {
	parameter.Result
	Weight float64
	Edges  int
}

// Profile measures the parallelism of the computation under the given
// union-find variant (Table 1's uf-ml vs uf-gk rows).
func Profile(uf unionfind.Sets, nodes int, edges []workload.Edge) (ProfileResult, error) {
	comps := newCompEdges(nodes, edges)
	mst := &mstLog{}
	items := make([]int64, nodes)
	for i := range items {
		items[i] = int64(i)
	}
	res, err := parameter.Profile(items, func(tx *engine.Tx, item int64, push func(int64)) (bool, error) {
		return step(tx, uf, comps, mst, item, push)
	})
	out := ProfileResult{Result: res}
	for _, e := range mst.committed() {
		out.Weight += e.W
		out.Edges++
	}
	return out, err
}

// Sequential computes the MST weight with plain Borůvka (no conflict
// detection): the serial baseline for overhead measurements.
func Sequential(nodes int, edges []workload.Edge) (float64, int) {
	f := unionfind.NewForest(nodes)
	comps := newCompEdges(nodes, edges)
	queue := make([]int64, nodes)
	for i := range queue {
		queue[i] = int64(i)
	}
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
		var surviving []workload.Edge
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
		if best.W < 0 {
			continue
		}
		f.Union(r, bestRep)
		winner, loser := r, bestRep
		if winner < loser {
			winner, loser = loser, winner
		}
		comps.seqMerge(winner, loser, append(surviving, comps.seqGet(bestRep)...))
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
