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
// mode, and undo actions run before the aborting transaction releases.
// A lock's grant and release are atomic operations or a stripe mutex,
// hence happens-before edges from each holder to the next. What is read
// outside any lock — the arc head Push needs to name its second node,
// Source and Sink — is topology, immutable once the Net is built. The
// 4-worker preflow.Run tests for ml, ex and part under -race are the
// check that no unsynchronised access is left.
type Graph struct {
	mgr *abslock.Manager
	// Compiled acquisition handles, one per method of Sig.
	getNeighbors, height, excess, relabel, pushFlow *abslock.Method

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
	mgr := abslock.NewManager(scheme.Reduce(), keys)
	return &Graph{
		mgr:          mgr,
		getNeighbors: mgr.Method("getNeighbors"),
		height:       mgr.Method("height"),
		excess:       mgr.Method("excess"),
		relabel:      mgr.Method("relabel"),
		pushFlow:     mgr.Method("pushFlow"),
		net:          net,
	}, nil
}

// NewRW guards net with read/write node locks (the "ml" point).
func NewRW(net *Net) *Graph {
	g, err := NewGraph(net, RWSpec(), nil)
	if err != nil {
		panic(err)
	}
	return g
}

// NewExclusive guards net with exclusive node locks (the "ex" point).
func NewExclusive(net *Net) *Graph {
	g, err := NewGraph(net, ExclusiveSpec(), nil)
	if err != nil {
		panic(err)
	}
	return g
}

// NewPartitioned guards net with locks on nparts node partitions (the
// "part" point; the paper uses 32). Node ids are non-negative, so the
// partition map is an unsigned remainder, and a mask when nparts is a
// power of two.
func NewPartitioned(net *Net, nparts int) *Graph {
	n := uint64(nparts)
	part := func(v core.Value) core.Value { return core.VInt(int64(uint64(v.Int()) % n)) }
	if n&(n-1) == 0 {
		part = func(v core.Value) core.Value { return core.VInt(int64(uint64(v.Int()) & (n - 1))) }
	}
	g, err := NewGraph(net, PartitionedSpec(), map[string]abslock.KeyFunc{PartKey: part})
	if err != nil {
		panic(err)
	}
	return g
}

// Net exposes the underlying network; only safe with no live
// transactions.
func (g *Graph) Net() *Net { return g.net }

// Neighbors returns a snapshot of u's residual arcs.
func (g *Graph) Neighbors(tx *engine.Tx, u int64) ([]Arc, error) {
	if err := g.mgr.Acquire(tx, g.getNeighbors, core.VInt(u)); err != nil {
		return nil, err
	}
	return append([]Arc(nil), g.net.Arcs(u)...), nil
}

// Height reads u's label.
func (g *Graph) Height(tx *engine.Tx, u int64) (int64, error) {
	if err := g.mgr.Acquire(tx, g.height, core.VInt(u)); err != nil {
		return 0, err
	}
	return g.net.Height(u), nil
}

// Excess reads u's excess flow.
func (g *Graph) Excess(tx *engine.Tx, u int64) (int64, error) {
	if err := g.mgr.Acquire(tx, g.excess, core.VInt(u)); err != nil {
		return 0, err
	}
	return g.net.Excess(u), nil
}

// Relabel sets u's label.
func (g *Graph) Relabel(tx *engine.Tx, u, h int64) error {
	if err := g.mgr.Acquire(tx, g.relabel, core.VInt(u)); err != nil {
		return err
	}
	old := g.net.SetHeight(u, h)
	tx.OnUndo(func() { g.net.SetHeight(u, old) })
	return nil
}

// Push moves amt units along u's arc with index ai (whose head is the
// second locked node).
func (g *Graph) Push(tx *engine.Tx, u int64, ai int, amt int64) error {
	v := int64(g.net.Arcs(u)[ai].To)
	if err := g.mgr.Acquire(tx, g.pushFlow, core.VInt(u), core.VInt(v)); err != nil {
		return err
	}
	if err := g.net.Push(u, ai, amt); err != nil {
		return err
	}
	tx.OnUndo(func() { g.net.unpush(u, ai, amt) })
	return nil
}
