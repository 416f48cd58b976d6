// Package preflow implements the Goldberg–Tarjan preflow-push max-flow
// algorithm, the paper's first case study (§5): a sequential reference
// and a speculative driver whose iterations discharge one active node
// through a transactionally guarded flow graph. The conflict-detection
// scheme is whatever flowgraph.Graph the caller supplies — read/write
// node locks ("ml"), exclusive locks ("ex") or partition locks ("part").
package preflow

import (
	"fmt"
	"math"

	"commlat/internal/adt/flowgraph"
	"commlat/internal/engine"
	"commlat/internal/parameter"
)

// Sequential computes the maximum flow of net with a FIFO preflow-push,
// mutating net. It returns the flow value (the sink's excess).
func Sequential(net *flowgraph.Net) int64 {
	n := int64(net.Len())
	src, sink := net.Source(), net.Sink()
	net.SetHeight(src, n)
	queue := saturateSource(net)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == src || u == sink {
			continue
		}
		queue = append(queue, dischargeSeq(net, u)...)
	}
	return net.Excess(sink)
}

// saturateSource pushes the source's full capacity outward and returns
// the initially active nodes.
func saturateSource(net *flowgraph.Net) []int64 {
	src, sink := net.Source(), net.Sink()
	var active []int64
	arcs := net.Arcs(src)
	for i := range arcs {
		if arcs[i].Cap > 0 {
			v := int64(arcs[i].To)
			amt := arcs[i].Cap
			net.AddExcess(src, amt) // keep Push's bookkeeping balanced
			if err := net.Push(src, i, amt); err != nil {
				panic(fmt.Sprintf("preflow: saturating push failed: %v", err))
			}
			if v != sink {
				active = append(active, v)
			}
		}
	}
	return active
}

// dischargeSeq pushes u's excess along admissible arcs, relabeling when
// stuck; it returns newly activated nodes (possibly including u itself).
func dischargeSeq(net *flowgraph.Net, u int64) []int64 {
	src, sink := net.Source(), net.Sink()
	var activated []int64
	e := net.Excess(u)
	if e <= 0 {
		return nil
	}
	hu := net.Height(u)
	arcs := net.Arcs(u)
	for i := range arcs {
		if e == 0 {
			break
		}
		if arcs[i].Cap <= 0 {
			continue
		}
		v := int64(arcs[i].To)
		if hu != net.Height(v)+1 {
			continue
		}
		amt := min(e, arcs[i].Cap)
		if err := net.Push(u, i, amt); err != nil {
			panic(fmt.Sprintf("preflow: %v", err))
		}
		e -= amt
		if v != src && v != sink {
			activated = append(activated, v)
		}
	}
	if e > 0 {
		// Relabel: one above the lowest residual neighbor.
		minH := int64(math.MaxInt64)
		for i := range arcs {
			if arcs[i].Cap > 0 {
				if h := net.Height(int64(arcs[i].To)); h < minH {
					minH = h
				}
			}
		}
		if minH < math.MaxInt64 {
			net.SetHeight(u, minH+1)
			activated = append(activated, u)
		}
	}
	return activated
}

// Discharge is one speculative iteration: the transactional analogue of
// dischargeSeq against a guarded graph. It reports whether it performed
// real work (pushed or relabeled).
//
// It is cautious: dischargeSeq decides every push and the relabel from
// reads alone, so Discharge plans them under the read locks (the same
// reads, in the same order, as dischargeSeq) and hands the plan to
// PushRelabel, which writes only once every lock is granted. A refused
// discharge has written nothing and pushed no work item.
func Discharge(tx *engine.Tx, g *flowgraph.Graph, u int64, push func(int64)) (bool, error) {
	src, sink := g.Net().Source(), g.Net().Sink()
	if u == src || u == sink {
		return false, nil
	}
	e, err := g.Excess(tx, u)
	if err != nil {
		return false, err
	}
	if e <= 0 {
		return false, nil
	}
	hu, err := g.Height(tx, u)
	if err != nil {
		return false, err
	}
	arcs, err := g.Neighbors(tx, u)
	if err != nil {
		return false, err
	}
	// The planned arcs live in an inline array: GENRMF's interior nodes
	// have at most 10 arcs. A node of higher degree spills to the heap.
	var inline [16]int
	pushed := inline[:0]
	for i := range arcs {
		if e == 0 {
			break
		}
		if arcs[i].Cap <= 0 {
			continue
		}
		hv, err := g.Height(tx, int64(arcs[i].To))
		if err != nil {
			return false, err
		}
		if hu != hv+1 {
			continue
		}
		pushed = append(pushed, i)
		e -= min(e, arcs[i].Cap)
	}
	label := int64(0)
	if e > 0 {
		// Excess left over means every planned push saturates its arc:
		// the residual arcs are the unpushed ones with capacity.
		minH := int64(math.MaxInt64)
		next := 0
		for i := range arcs {
			if next < len(pushed) && pushed[next] == i {
				next++
				continue
			}
			if arcs[i].Cap <= 0 {
				continue
			}
			hv, err := g.Height(tx, int64(arcs[i].To))
			if err != nil {
				return false, err
			}
			minH = min(minH, hv)
		}
		if minH < math.MaxInt64 {
			label = minH + 1
		}
	}
	if len(pushed) == 0 && label == 0 {
		return false, nil
	}
	if err := g.PushRelabel(tx, u, pushed, label); err != nil {
		return false, err
	}
	for _, i := range pushed {
		if v := int64(arcs[i].To); v != src && v != sink {
			push(v)
		}
	}
	if label > 0 {
		push(u)
	}
	return true, nil
}

// Run computes the max flow speculatively over the guarded graph g,
// whose underlying network must be freshly built (un-run). It returns
// the flow value and the executor statistics.
func Run(g *flowgraph.Graph, opts engine.Options) (int64, engine.Stats, error) {
	net := g.Net()
	net.SetHeight(net.Source(), int64(net.Len()))
	active := saturateSource(net)
	wl := engine.NewWorklist(active...)
	stats, err := engine.Run(wl, opts, func(tx *engine.Tx, u int64, wl *engine.Worklist[int64]) error {
		_, err := Discharge(tx, g, u, func(v int64) { wl.Push(v) })
		return err
	})
	if err != nil {
		return 0, stats, err
	}
	return net.Excess(net.Sink()), stats, nil
}

// ProfileResult bundles a parallelism profile with the computed flow.
type ProfileResult struct {
	parameter.Result
	Flow int64
}

// Profile runs the ParaMeter-style round scheduler over the discharge
// iterations (Table 1's critical path / parallelism columns).
func Profile(g *flowgraph.Graph) (ProfileResult, error) {
	net := g.Net()
	net.SetHeight(net.Source(), int64(net.Len()))
	active := saturateSource(net)
	res, err := parameter.Profile(active, func(tx *engine.Tx, u int64, push func(int64)) (bool, error) {
		return Discharge(tx, g, u, push)
	})
	return ProfileResult{Result: res, Flow: net.Excess(net.Sink())}, err
}
