// Package flowgraph implements the graph-like ADT behind the paper's
// preflow-push case study (§5): a residual flow network supporting the
// operations the algorithm needs (neighbor enumeration, height and
// excess reads, relabel, pushFlow), with a SIMPLE commutativity
// specification whose synthesized abstract locks come in the paper's
// three flavours — read/write locks on nodes (the "ml" point, identical
// to what a transactional memory would do), exclusive locks ("ex"), and
// partition locks ("part", §4.2).
package flowgraph

import "fmt"

// Arc is one directed residual arc.
type Arc struct {
	To  int32
	Cap int64 // remaining (residual) capacity
	Rev int32 // index of the reverse arc in arcs[To]
}

// Net is a sequential (non-thread-safe) residual flow network with
// per-node heights and excesses — the concrete state of preflow-push.
type Net struct {
	arcs   [][]Arc
	height []int64
	excess []int64
	src    int64
	sink   int64
}

// NewNet creates a network with n nodes, a source and a sink.
func NewNet(n int, src, sink int64) *Net {
	return &Net{
		arcs:   make([][]Arc, n),
		height: make([]int64, n),
		excess: make([]int64, n),
		src:    src,
		sink:   sink,
	}
}

// Len returns the node count.
func (g *Net) Len() int { return len(g.arcs) }

// Source and Sink identify the distinguished nodes.
func (g *Net) Source() int64 { return g.src }

// Sink returns the sink node.
func (g *Net) Sink() int64 { return g.sink }

// AddEdge adds a directed edge u→v with the given capacity (and its
// zero-capacity residual reverse). Parallel edges are allowed.
func (g *Net) AddEdge(u, v, cap int64) {
	if u == v {
		return
	}
	g.arcs[u] = append(g.arcs[u], Arc{To: int32(v), Cap: cap, Rev: int32(len(g.arcs[v]))})
	g.arcs[v] = append(g.arcs[v], Arc{To: int32(u), Cap: 0, Rev: int32(len(g.arcs[u]) - 1)})
}

// Height returns node u's label.
func (g *Net) Height(u int64) int64 { return g.height[u] }

// SetHeight relabels node u, returning the old label.
func (g *Net) SetHeight(u, h int64) int64 {
	old := g.height[u]
	g.height[u] = h
	return old
}

// Excess returns node u's excess flow.
func (g *Net) Excess(u int64) int64 { return g.excess[u] }

// Arcs returns u's residual arc list (shared storage; callers must not
// mutate).
func (g *Net) Arcs(u int64) []Arc { return g.arcs[u] }

// Push moves amt units along u's arc with index ai, updating residual
// capacities and excesses. It reports an error if the push is infeasible
// (guarding against driver bugs).
func (g *Net) Push(u int64, ai int, amt int64) error {
	a := &g.arcs[u][ai]
	if amt <= 0 || amt > a.Cap {
		return fmt.Errorf("flowgraph: infeasible push of %d on %d→%d (cap %d)", amt, u, a.To, a.Cap)
	}
	a.Cap -= amt
	g.arcs[a.To][a.Rev].Cap += amt
	g.excess[u] -= amt
	g.excess[a.To] += amt
	return nil
}

// unpush exactly reverses a Push (for transaction rollback).
func (g *Net) unpush(u int64, ai int, amt int64) {
	a := &g.arcs[u][ai]
	a.Cap += amt
	g.arcs[a.To][a.Rev].Cap -= amt
	g.excess[u] += amt
	g.excess[a.To] -= amt
}

// AddExcess credits node u with extra excess (used to saturate the
// source's arcs during initialization).
func (g *Net) AddExcess(u, amt int64) { g.excess[u] += amt }
