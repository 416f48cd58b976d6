package preflow

import (
	"testing"

	"commlat/internal/adt/flowgraph"
	"commlat/internal/engine"
	"commlat/internal/workload"
)

// handNet builds a classic small network with known max flow 23
// (CLRS figure 26.6 style).
func handNet() *flowgraph.Net {
	n := flowgraph.NewNet(6, 0, 5)
	n.AddEdge(0, 1, 16)
	n.AddEdge(0, 2, 13)
	n.AddEdge(1, 2, 10)
	n.AddEdge(2, 1, 4)
	n.AddEdge(1, 3, 12)
	n.AddEdge(3, 2, 9)
	n.AddEdge(2, 4, 14)
	n.AddEdge(4, 3, 7)
	n.AddEdge(3, 5, 20)
	n.AddEdge(4, 5, 4)
	return n
}

// bfsMaxFlow is an independent Edmonds–Karp oracle.
func bfsMaxFlow(n *flowgraph.Net) int64 {
	src, sink := n.Source(), n.Sink()
	var total int64
	for {
		// BFS for an augmenting path in the residual network.
		type hop struct {
			node int64
			arc  int
		}
		prev := make(map[int64]hop)
		prev[src] = hop{node: -1}
		queue := []int64{src}
		for len(queue) > 0 && prev[sink].node == 0 {
			u := queue[0]
			queue = queue[1:]
			for i, a := range n.Arcs(u) {
				v := int64(a.To)
				if a.Cap > 0 {
					if _, seen := prev[v]; !seen {
						prev[v] = hop{node: u, arc: i}
						queue = append(queue, v)
					}
				}
			}
		}
		if _, ok := prev[sink]; !ok {
			return total
		}
		// Bottleneck.
		amt := int64(1 << 62)
		for v := sink; v != src; {
			h := prev[v]
			if c := n.Arcs(h.node)[h.arc].Cap; c < amt {
				amt = c
			}
			v = h.node
		}
		for v := sink; v != src; {
			h := prev[v]
			if err := n.Push(h.node, h.arc, amt); err != nil {
				panic(err)
			}
			v = h.node
		}
		total += amt
	}
}

func TestSequentialHandNetwork(t *testing.T) {
	if got := Sequential(handNet()); got != 23 {
		t.Errorf("max flow = %d, want 23", got)
	}
}

func TestSequentialMatchesEdmondsKarp(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ref := bfsMaxFlow(workload.GenRMF(3, 4, 1, 100, seed))
		got := Sequential(workload.GenRMF(3, 4, 1, 100, seed))
		if got != ref {
			t.Errorf("seed %d: preflow = %d, Edmonds-Karp = %d", seed, got, ref)
		}
	}
}

func graphVariants(mk func() *flowgraph.Net) map[string]func() *flowgraph.Graph {
	return map[string]func() *flowgraph.Graph{
		"ml":   func() *flowgraph.Graph { return flowgraph.NewRW(mk()) },
		"ex":   func() *flowgraph.Graph { return flowgraph.NewExclusive(mk()) },
		"part": func() *flowgraph.Graph { return flowgraph.NewPartitioned(mk(), 8) },
	}
}

func TestSpeculativeAllSchemes(t *testing.T) {
	mk := func() *flowgraph.Net { return workload.GenRMF(3, 3, 1, 50, 7) }
	want := Sequential(mk())
	for name, g := range graphVariants(mk) {
		for _, workers := range []int{1, 4} {
			flow, stats, err := Run(g(), engine.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s/%d workers: %v", name, workers, err)
			}
			if flow != want {
				t.Errorf("%s/%d workers: flow = %d, want %d (stats %+v)", name, workers, flow, want, stats)
			}
		}
	}
}

func TestSpeculativeHandNetwork(t *testing.T) {
	for name, g := range graphVariants(handNet) {
		flow, _, err := Run(g(), engine.Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if flow != 23 {
			t.Errorf("%s: flow = %d, want 23", name, flow)
		}
	}
}

func TestProfileSchemesOrdering(t *testing.T) {
	mk := func() *flowgraph.Net { return workload.GenRMF(4, 4, 1, 50, 3) }
	want := Sequential(mk())

	results := map[string]ProfileResult{}
	for name, g := range graphVariants(mk) {
		res, err := Profile(g())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Flow != want {
			t.Fatalf("%s: profiled flow = %d, want %d", name, res.Flow, want)
		}
		results[name] = res
	}
	// The lattice ordering must show up as parallelism ordering:
	// ml (r/w locks) ≥ ex (exclusive) ≥ part (32-way coarsened), as in
	// Table 1.
	if results["ml"].AvgParallelism < results["ex"].AvgParallelism {
		t.Errorf("ml parallelism (%v) should be ≥ ex (%v)",
			results["ml"].AvgParallelism, results["ex"].AvgParallelism)
	}
	if results["ex"].AvgParallelism < results["part"].AvgParallelism {
		t.Errorf("ex parallelism (%v) should be ≥ part (%v)",
			results["ex"].AvgParallelism, results["part"].AvgParallelism)
	}
	t.Logf("parallelism: ml=%.2f ex=%.2f part=%.2f",
		results["ml"].AvgParallelism, results["ex"].AvgParallelism, results["part"].AvgParallelism)
}

func TestGenRMFShape(t *testing.T) {
	net := workload.GenRMF(3, 2, 1, 10, 1)
	if net.Len() != 18 {
		t.Errorf("nodes = %d, want 18", net.Len())
	}
	if net.Source() != 0 || net.Sink() != 17 {
		t.Errorf("src/sink = %d/%d", net.Source(), net.Sink())
	}
	// Flow must be positive and bounded by the inter-frame cut (9 arcs of
	// capacity ≤ 10).
	flow := Sequential(net)
	if flow <= 0 || flow > 90 {
		t.Errorf("flow = %d out of expected range", flow)
	}
}

// TestDischargeAllocatesOnlyUndo pins a discharge on a warmed graph to
// its undo closures, one per push or relabel: it copies no arc list and
// builds no argument Value.
func TestDischargeAllocatesOnlyUndo(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops transactions at random under -race")
	}
	n := flowgraph.NewNet(4, 0, 3)
	n.AddEdge(0, 1, 10)
	n.AddEdge(1, 2, 3)
	n.AddEdge(1, 3, 4)
	g := flowgraph.NewRW(n)
	n.SetHeight(0, 4)
	saturateSource(n)
	n.SetHeight(1, 1)
	// Node 1 pushes 3 to node 2 and 4 to the sink, then relabels above
	// the source, the one neighbour its 3 left units can still reach.
	const pushes, relabels = 2, 1
	discharge := func() *engine.Tx {
		tx := engine.GetTx()
		if worked, err := Discharge(tx, g, 1, func(int64) {}); !worked || err != nil {
			t.Fatalf("Discharge = %v, %v", worked, err)
		}
		return tx
	}
	tx := discharge()
	if n.Excess(2) != 3 || n.Excess(3) != 4 || n.Height(1) != 5 {
		t.Fatalf("discharge left excess %d, %d and height %d, want 3, 4 and 5", n.Excess(2), n.Excess(3), n.Height(1))
	}
	tx.Abort()
	engine.PutTx(tx)
	allocs := testing.AllocsPerRun(100, func() {
		tx := discharge()
		tx.Abort()
		engine.PutTx(tx)
	})
	if allocs > pushes+relabels {
		t.Errorf("Discharge allocates %v per call, want at most %d (its undo closures)", allocs, pushes+relabels)
	}
}
