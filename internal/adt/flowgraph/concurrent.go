package flowgraph

import (
	"sync"

	"commlat/internal/abslock"
	"commlat/internal/core"
	"commlat/internal/engine"
)

// Graph is the transactionally guarded flow network: a Net behind a
// synthesized abstract-locking scheme. Different constructors pick
// different lattice points; the API is identical.
type Graph struct {
	mgr *abslock.Manager
	// Compiled acquisition handles, one per method of Sig.
	getNeighbors, height, excess, relabel, pushFlow *abslock.Method

	mu  sync.Mutex
	net *Net
}

// NewGraph guards net with the scheme synthesized from spec. keys
// supplies pure key functions for partitioned specs.
func NewGraph(net *Net, spec *core.Spec, keys map[string]abslock.KeyFunc) (*Graph, error) {
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
// "part" point; the paper uses 32).
func NewPartitioned(net *Net, nparts int) *Graph {
	g, err := NewGraph(net, PartitionedSpec(), map[string]abslock.KeyFunc{
		PartKey: func(v core.Value) core.Value { return core.VInt(v.Int() % int64(nparts)) },
	})
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
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Arc(nil), g.net.Arcs(u)...), nil
}

// Height reads u's label.
func (g *Graph) Height(tx *engine.Tx, u int64) (int64, error) {
	if err := g.mgr.Acquire(tx, g.height, core.VInt(u)); err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.net.Height(u), nil
}

// Excess reads u's excess flow.
func (g *Graph) Excess(tx *engine.Tx, u int64) (int64, error) {
	if err := g.mgr.Acquire(tx, g.excess, core.VInt(u)); err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.net.Excess(u), nil
}

// Relabel sets u's label.
func (g *Graph) Relabel(tx *engine.Tx, u, h int64) error {
	if err := g.mgr.Acquire(tx, g.relabel, core.VInt(u)); err != nil {
		return err
	}
	g.mu.Lock()
	old := g.net.SetHeight(u, h)
	g.mu.Unlock()
	tx.OnUndo(func() {
		g.mu.Lock()
		g.net.SetHeight(u, old)
		g.mu.Unlock()
	})
	return nil
}

// Push moves amt units along u's arc with index ai (whose head is the
// second locked node).
func (g *Graph) Push(tx *engine.Tx, u int64, ai int, amt int64) error {
	g.mu.Lock()
	v := int64(g.net.Arcs(u)[ai].To)
	g.mu.Unlock()
	if err := g.mgr.Acquire(tx, g.pushFlow, core.VInt(u), core.VInt(v)); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.net.Push(u, ai, amt); err != nil {
		return err
	}
	tx.OnUndo(func() {
		g.mu.Lock()
		g.net.unpush(u, ai, amt)
		g.mu.Unlock()
	})
	return nil
}
