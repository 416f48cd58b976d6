package preflow

import (
	"fmt"
	"slices"
	"testing"

	"commlat/internal/adt/flowgraph"
	"commlat/internal/engine"
	"commlat/internal/parameter"
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

// TestRunLeavesAValidFlow checks the flow a speculative run leaves, not
// just its value: a write that escaped a refused admission, or a sealed
// transaction that aborted, breaks conservation or a capacity even when
// the sink's excess happens to be right.
func TestRunLeavesAValidFlow(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		mk := func() *flowgraph.Net { return workload.GenRMF(4, 4, 1, 50, seed) }
		want, built := Sequential(mk()), mk()
		for name, g := range graphVariants(mk) {
			for _, workers := range []int{1, 2, 4} {
				gr := g()
				flow, _, err := Run(gr, engine.Options{Workers: workers})
				if err != nil {
					t.Fatalf("seed %d %s/%d workers: %v", seed, name, workers, err)
				}
				checkFlow(t, fmt.Sprintf("seed %d %s/%d workers", seed, name, workers), gr.Net(), built, flow, want)
			}
		}
	}
}

// TestProfileLeavesAValidFlow is TestRunLeavesAValidFlow under the
// ParaMeter scheduler, which holds each round's transactions open until
// the round ends: a discharge planned against a node another open
// discharge holds is refused inside PushRelabel, on one goroutine and
// deterministically. A PushRelabel that wrote before its last lock was
// granted would leave those writes behind.
func TestProfileLeavesAValidFlow(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		mk := func() *flowgraph.Net { return workload.GenRMF(4, 4, 1, 50, seed) }
		want, built := Sequential(mk()), mk()
		for name, g := range graphVariants(mk) {
			gr := g()
			res, err := Profile(gr)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if res.Conflicts == 0 {
				t.Errorf("seed %d %s: no discharge was refused", seed, name)
			}
			checkFlow(t, fmt.Sprintf("seed %d %s profile", seed, name), gr.Net(), built, res.Flow, want)
		}
	}
}

// TestRefusedDischargeWritesNothing drives Discharge through the
// ParaMeter scheduler as Profile does, and checks that every refused
// discharge leaves the net as it found it. A refusal inside PushRelabel
// after a leaked push can still end in a valid maximum flow, since the
// leaked push is a legal one, so the final state alone cannot catch it.
func TestRefusedDischargeWritesNothing(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, g := range graphVariants(func() *flowgraph.Net { return workload.GenRMF(4, 4, 1, 50, seed) }) {
			gr := g()
			net := gr.Net()
			net.SetHeight(net.Source(), int64(net.Len()))
			refused := 0
			_, err := parameter.Profile(saturateSource(net), func(tx *engine.Tx, u int64, push func(int64)) (bool, error) {
				before := snapshot(net)
				did, err := Discharge(tx, gr, u, push)
				if engine.IsConflict(err) {
					refused++
					if after := snapshot(net); !slices.Equal(after, before) {
						t.Errorf("seed %d %s: refused discharge of node %d wrote to the net", seed, name, u)
					}
				}
				return did, err
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if refused == 0 {
				t.Errorf("seed %d %s: no discharge was refused", seed, name)
			}
		}
	}
}

// snapshot lists every height, excess and residual capacity of n.
func snapshot(n *flowgraph.Net) []int64 {
	var s []int64
	for u := int64(0); u < int64(n.Len()); u++ {
		s = append(s, n.Height(u), n.Excess(u))
		for _, a := range n.Arcs(u) {
			s = append(s, a.Cap)
		}
	}
	return s
}

// checkFlow checks that n, solved from built, holds a valid maximum
// flow: value want, no excess left on an interior node, and every arc
// pair within its built capacity.
func checkFlow(t *testing.T, label string, n, built *flowgraph.Net, flow, want int64) {
	t.Helper()
	if flow != want {
		t.Errorf("%s: flow = %d, want %d", label, flow, want)
	}
	for u := int64(0); u < int64(n.Len()); u++ {
		if e := n.Excess(u); e != 0 && u != n.Source() && u != n.Sink() {
			t.Errorf("%s: interior node %d keeps excess %d", label, u, e)
		}
		for i, a := range n.Arcs(u) {
			b, rev := built.Arcs(u)[i], n.Arcs(int64(a.To))[a.Rev]
			if a.Cap < 0 || a.Cap+rev.Cap != b.Cap+built.Arcs(int64(b.To))[b.Rev].Cap {
				t.Errorf("%s: arc %d→%d has residual %d and reverse %d, built %d and %d",
					label, u, a.To, a.Cap, rev.Cap, b.Cap, built.Arcs(int64(b.To))[b.Rev].Cap)
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

// TestDischargeAllocatesNothing pins a discharge on a warmed graph to no
// allocation: it copies no arc list, builds no argument Value, keeps its
// plan in an inline array and, being cautious, registers no undo.
func TestDischargeAllocatesNothing(t *testing.T) {
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
	// The discharge commits, so the test undoes it by hand: the flow goes
	// back along the reverse arcs and node 1 takes its old label.
	discharge := func() {
		tx := engine.GetTx()
		if worked, err := Discharge(tx, g, 1, func(int64) {}); !worked || err != nil {
			t.Fatalf("Discharge = %v, %v", worked, err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
	restore := func() {
		for _, ai := range []int{1, 2} {
			a := n.Arcs(1)[ai]
			if err := n.Push(int64(a.To), int(a.Rev), n.Arcs(int64(a.To))[a.Rev].Cap); err != nil {
				t.Fatal(err)
			}
		}
		n.SetHeight(1, 1)
	}
	discharge()
	if n.Excess(2) != 3 || n.Excess(3) != 4 || n.Height(1) != 5 {
		t.Fatalf("discharge left excess %d, %d and height %d, want 3, 4 and 5", n.Excess(2), n.Excess(3), n.Height(1))
	}
	restore()
	if n.Excess(1) != 10 || n.Excess(2) != 0 || n.Excess(3) != 0 || n.Arcs(1)[1].Cap != 3 || n.Arcs(1)[2].Cap != 4 {
		t.Fatalf("restore left excess %d, %d, %d and caps %d, %d; want 10, 0, 0 and 3, 4",
			n.Excess(1), n.Excess(2), n.Excess(3), n.Arcs(1)[1].Cap, n.Arcs(1)[2].Cap)
	}
	allocs := testing.AllocsPerRun(100, func() {
		discharge()
		restore()
	})
	if allocs != 0 {
		t.Errorf("Discharge allocates %v per call, want 0", allocs)
	}
}
