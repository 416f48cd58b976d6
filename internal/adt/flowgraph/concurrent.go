package flowgraph

import (
	"fmt"
	"sync"

	"commlat/internal/abslock"
	"commlat/internal/core"
	"commlat/internal/engine"
)

// Graph is the transactionally guarded flow network: a Net behind a
// synthesized abstract-locking scheme. Different constructors pick
// different lattice points; the API is identical.
//
// The abstract locks are the only synchronisation of the Net. NewGraph
// admits only specifications at or below RWSpec, and every specification
// there lets two invocations run concurrently only when they touch
// disjoint nodes or both read; a node's height, excess and arc
// capacities (its own arcs' and, through pushFlow's second argument, the
// reverse arcs that live in its neighbour's list) are read and written
// only by a guarded call that holds that node's lock in the matching
// mode. Reads happen as their lock is granted; writes start only after
// every lock of the one write method, PushRelabel, is granted, so a
// refused transaction has written nothing and the Graph registers no
// undo. A lock's grant and release are atomic operations or the lock
// table's mutex, hence happens-before edges from each holder to the
// next. What is read outside any lock — the arc heads PushRelabel needs
// to name its second nodes, Source and Sink — is topology, immutable
// once the Net is built. The 4-worker preflow.Run tests for ml, ex and
// part under -race are the check that no unsynchronised access is left.
type Graph struct {
	mgr *abslock.Manager
	// Compiled acquisition handles, one per method of Sig.
	getNeighbors, height, excess, relabel, pushFlow *abslock.Method

	ids []core.Value // ids[u] = core.VInt(u), built once: no call builds a Value
	net *Net
}

// rwPoint is NewGraph's own read-only RWSpec, the bound it proves every
// specification against.
var rwPoint = sync.OnceValue(RWSpec)

// NewGraph guards net with the scheme synthesized from spec, which must
// be provably at or below RWSpec: a specification that lets more commute
// (a read with a write of the same node, say) would need memory isolation
// the node locks do not give (see Graph). keys supplies pure key
// functions for partitioned specs.
func NewGraph(net *Net, spec *core.Spec, keys map[string]abslock.KeyFunc) (*Graph, error) {
	if !spec.LE(rwPoint()) {
		return nil, fmt.Errorf("flowgraph: cannot prove the specification at or below the read/write point; its locks would not isolate node state:\n%s", spec)
	}
	scheme, err := abslock.Synthesize(spec)
	if err != nil {
		return nil, err
	}
	return newGraph(net, scheme.Reduce(), keys), nil
}

// newGraph guards net with a proved, reduced scheme.
func newGraph(net *Net, scheme *abslock.Scheme, keys map[string]abslock.KeyFunc) *Graph {
	mgr := abslock.NewManager(scheme, keys)
	ids := make([]core.Value, net.Len())
	for u := range ids {
		ids[u] = core.VInt(int64(u))
	}
	return &Graph{
		mgr:          mgr,
		getNeighbors: mgr.Method("getNeighbors"),
		height:       mgr.Method("height"),
		excess:       mgr.Method("excess"),
		relabel:      mgr.Method("relabel"),
		pushFlow:     mgr.Method("pushFlow"),
		ids:          ids,
		net:          net,
	}
}

// The shipped points' schemes: each is proved, synthesized and reduced
// once, on first use, and every Graph at the point shares it.
var rwScheme, exScheme, partScheme = shipped(RWSpec), shipped(ExclusiveSpec), shipped(PartitionedSpec)

// shipped is abslock.Shipped for a point NewGraph would accept.
func shipped(point func() *core.Spec) func() *abslock.Scheme {
	return abslock.Shipped(func() *core.Spec {
		spec := point()
		if !spec.LE(rwPoint()) {
			panic("flowgraph: a shipped point is not provably at or below the read/write point")
		}
		return spec
	})
}

// NewRW guards net with read/write node locks (the "ml" point).
func NewRW(net *Net) *Graph { return newGraph(net, rwScheme(), nil) }

// NewExclusive guards net with exclusive node locks (the "ex" point).
func NewExclusive(net *Net) *Graph { return newGraph(net, exScheme(), nil) }

// NewPartitioned guards net with locks on nparts node partitions (the
// "part" point; the paper uses 32). Node ids are non-negative ints (every
// method locks core.VInt(u)), so the partition map is an unsigned
// remainder, and a mask when nparts is a power of two; its word is the
// partition number. AsInt reads the id without copying the Value.
func NewPartitioned(net *Net, nparts int) *Graph {
	n := uint64(nparts)
	part := func(v core.Value) uint64 { u, _ := v.AsInt(); return uint64(u) % n }
	if n&(n-1) == 0 {
		part = func(v core.Value) uint64 { u, _ := v.AsInt(); return uint64(u) & (n - 1) }
	}
	return newGraph(net, partScheme(), map[string]abslock.KeyFunc{PartKey: part})
}

// Net exposes the underlying network; only safe with no live
// transactions.
func (g *Graph) Net() *Net { return g.net }

// Neighbors returns u's residual arcs: the network's own list, not a
// copy, valid until tx ends; callers must not write to it. Only tx's own
// pushes change it: every spec NewGraph admits holds u's lock to the end,
// and every write to the list — pushFlow(u, ·), or pushFlow(·, u) on a
// reverse arc — needs u's write lock.
func (g *Graph) Neighbors(tx *engine.Tx, u int64) ([]Arc, error) {
	if err := g.mgr.Acquire(tx, g.getNeighbors, g.ids[u:u+1]...); err != nil {
		return nil, err
	}
	return g.net.Arcs(u), nil
}

// Height reads u's label.
func (g *Graph) Height(tx *engine.Tx, u int64) (int64, error) {
	if err := g.mgr.Acquire(tx, g.height, g.ids[u:u+1]...); err != nil {
		return 0, err
	}
	return g.net.Height(u), nil
}

// Excess reads u's excess flow.
func (g *Graph) Excess(tx *engine.Tx, u int64) (int64, error) {
	if err := g.mgr.Acquire(tx, g.excess, g.ids[u:u+1]...); err != nil {
		return 0, err
	}
	return g.net.Excess(u), nil
}

// PushRelabel is the Graph's one write: it pushes u's excess along u's
// arcs with indices arcs, in order, min(excess, residual capacity) along
// each, and then, if label > 0, sets u's label to label (heights are
// never negative, so 0 asks for no relabel). It is cautious: it acquires
// pushFlow(u, head) for every arc and then relabel(u), and a refusal
// returns with nothing written. Only once every lock is granted does it
// seal tx (see engine.Tx.Seal) and write, so it registers no undo and tx
// can only commit.
//
// arcs must be strictly increasing, and every push must move flow: its
// arc has residual capacity and u has excess left after the earlier
// pushes. A plan that breaks this is an error, again with nothing
// written.
func (g *Graph) PushRelabel(tx *engine.Tx, u int64, arcs []int, label int64) error {
	list := g.net.Arcs(u)
	for _, i := range arcs {
		if err := g.mgr.Acquire(tx, g.pushFlow, g.ids[u], g.ids[list[i].To]); err != nil {
			return err
		}
	}
	if label > 0 {
		if err := g.mgr.Acquire(tx, g.relabel, g.ids[u:u+1]...); err != nil {
			return err
		}
	}
	e := g.net.Excess(u)
	for k, i := range arcs {
		if k > 0 && i <= arcs[k-1] || e <= 0 || list[i].Cap <= 0 {
			return fmt.Errorf("flowgraph: push %d of the plan from node %d (arc %d) is out of order or moves no flow", k, u, i)
		}
		e -= min(e, list[i].Cap)
	}
	tx.Seal()
	for _, i := range arcs {
		if err := g.net.Push(u, i, min(g.net.Excess(u), list[i].Cap)); err != nil {
			panic(err) // the plan was checked above, under the locks
		}
	}
	if label > 0 {
		g.net.SetHeight(u, label)
	}
	return nil
}
