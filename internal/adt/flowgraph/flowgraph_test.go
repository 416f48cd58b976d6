package flowgraph

import (
	"reflect"
	"testing"

	"commlat/internal/abslock"
	"commlat/internal/core"
	"commlat/internal/engine"
)

func diamond() *Net {
	// 0=src, 3=sink; two disjoint paths 0→1→3 and 0→2→3.
	n := NewNet(4, 0, 3)
	n.AddEdge(0, 1, 5)
	n.AddEdge(0, 2, 7)
	n.AddEdge(1, 3, 4)
	n.AddEdge(2, 3, 9)
	return n
}

func TestNetPushAndResiduals(t *testing.T) {
	n := diamond()
	if err := n.Push(0, 0, 3); err != nil { // 0→1 : 3
		t.Fatal(err)
	}
	if n.Arcs(0)[0].Cap != 2 {
		t.Errorf("forward residual = %d", n.Arcs(0)[0].Cap)
	}
	// The reverse arc 1→0 gained capacity 3.
	rev := n.Arcs(0)[0].Rev
	if n.Arcs(1)[rev].Cap != 3 {
		t.Errorf("reverse residual = %d", n.Arcs(1)[rev].Cap)
	}
	if n.Excess(1) != 3 || n.Excess(0) != -3 {
		t.Errorf("excesses = %d, %d", n.Excess(1), n.Excess(0))
	}
	// Infeasible pushes are rejected.
	if err := n.Push(0, 0, 10); err == nil {
		t.Error("overpush should error")
	}
	if err := n.Push(0, 0, 0); err == nil {
		t.Error("zero push should error")
	}
}

func TestSpecsAreSimple(t *testing.T) {
	if RWSpec().Classify() != core.ClassSimple {
		t.Error("RWSpec should be SIMPLE")
	}
	if ExclusiveSpec().Classify() != core.ClassSimple {
		t.Error("ExclusiveSpec should be SIMPLE")
	}
}

func TestSpecLattice(t *testing.T) {
	rw, ex, part := RWSpec(), ExclusiveSpec(), PartitionedSpec()
	if !ex.LE(rw) || rw.LE(ex) {
		t.Error("exclusive should be strictly below rw")
	}
	if !part.LE(ex) || ex.LE(part) {
		t.Error("partitioned should be strictly below exclusive")
	}
}

// handSpellings are RWSpec and the "ex" point written out pair by pair:
// a write shares no node with the other method, and under rw neither
// does a read with a read.
func handSpellings() (rw, ex *core.Spec) {
	nodes := map[string][]int{"getNeighbors": {0}, "height": {0}, "excess": {0}, "relabel": {0}, "pushFlow": {0, 1}}
	reads := map[string]bool{"getNeighbors": true, "height": true, "excess": true}
	rw, ex = core.NewSpec(Sig()), core.NewSpec(Sig())
	for _, p := range rw.Pairs() {
		var disjoint []core.Cond
		for _, i := range nodes[p[0]] {
			for _, j := range nodes[p[1]] {
				disjoint = append(disjoint, core.Ne(core.ArgTerm{Side: core.First, Index: i}, core.ArgTerm{Side: core.Second, Index: j}))
			}
		}
		ex.Set(p[0], p[1], core.And(disjoint...))
		rw.Set(p[0], p[1], core.And(disjoint...))
		if reads[p[0]] && reads[p[1]] {
			rw.Set(p[0], p[1], core.True())
		}
	}
	return rw, ex
}

// TestPipelinesMatchHandSpellings: RWSpec is read/write locking on
// nodes, and ExclusiveSpec and PartitionedSpec are §4 moves from it;
// each sits at the same lattice point as its hand spelling and
// synthesizes the same scheme.
func TestPipelinesMatchHandSpellings(t *testing.T) {
	rw, ex := handSpellings()
	part, err := ex.PartitionSpec(PartKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want *core.Spec
	}{
		{"rw", RWSpec(), rw},
		{"ex", ExclusiveSpec(), ex},
		{"part", PartitionedSpec(), part},
	} {
		if !c.got.LE(c.want) || !c.want.LE(c.got) {
			t.Errorf("%s: pipeline\n%s\nis not the hand spelling\n%s", c.name, c.got, c.want)
		}
		got, err1 := abslock.Synthesize(c.got)
		want, err2 := abslock.Synthesize(c.want)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", c.name, err1, err2)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got.Reduce(), want.Reduce()) {
			t.Errorf("%s: synthesized schemes differ:\n%s\n%s", c.name, got.MatrixString(), want.MatrixString())
		}
	}
}

// TestNewGraphRequiresNodeIsolation: the Graph has no lock of its own, so
// NewGraph takes only specifications it can place at or below RWSpec,
// where commuting invocations touch disjoint nodes or both read.
func TestNewGraphRequiresNodeIsolation(t *testing.T) {
	for name, spec := range map[string]*core.Spec{
		"rw": RWSpec(), "ex": ExclusiveSpec(), "part": PartitionedSpec(), "bottom": core.Bottom(Sig()),
	} {
		keys := map[string]abslock.KeyFunc{PartKey: func(v core.Value) uint64 { return uint64(v.Int() % 4) }}
		if _, err := NewGraph(diamond(), spec, keys); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Reads of a node's height commuting with its relabel: nothing orders
	// the two accesses.
	racy := RWSpec().Set("relabel", "height", core.True())
	if g, err := NewGraph(diamond(), racy, nil); err == nil {
		t.Errorf("NewGraph accepted a specification above RWSpec: %+v", g)
	}
}

func TestRWConcurrentReadsSharedNodeWritesConflict(t *testing.T) {
	g := NewRW(diamond())
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	// Two readers of node 1 share.
	if _, err := g.Height(tx1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Height(tx2, 1); err != nil {
		t.Fatalf("concurrent reads should share: %v", err)
	}
	// A relabel of node 1 conflicts with the readers.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if err := g.PushRelabel(tx3, 1, nil, 2); !engine.IsConflict(err) {
		t.Fatalf("relabel under readers should conflict, got %v", err)
	}
	// A relabel of node 2 proceeds.
	tx4 := engine.NewTx()
	defer tx4.Commit()
	if err := g.PushRelabel(tx4, 2, nil, 2); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveReadsConflict(t *testing.T) {
	g := NewExclusive(diamond())
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if _, err := g.Height(tx1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Height(tx2, 1); !engine.IsConflict(err) {
		t.Fatalf("exclusive scheme: same-node reads should conflict, got %v", err)
	}
	if _, err := g.Height(tx2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedCoarseness(t *testing.T) {
	n := NewNet(64, 0, 63)
	g := NewPartitioned(n, 4)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if _, err := g.Height(tx1, 5); err != nil {
		t.Fatal(err)
	}
	// Node 9 is in the same partition (5 ≡ 9 mod 4): conflict.
	if _, err := g.Height(tx2, 9); !engine.IsConflict(err) {
		t.Fatalf("same-partition access should conflict, got %v", err)
	}
	// Node 6 is in another partition: fine.
	if _, err := g.Height(tx2, 6); err != nil {
		t.Fatal(err)
	}
}

// seeded is the diamond with the source's arc to node 1 saturated: node
// 1 holds 5 units of excess, and its arcs are 1→0 (capacity 5) and 1→3
// (capacity 4).
func seeded() *Net {
	n := diamond()
	n.AddExcess(0, 5)
	if err := n.Push(0, 0, 5); err != nil {
		panic(err)
	}
	return n
}

func TestPushLocksBothEndpoints(t *testing.T) {
	g := NewRW(seeded())
	tx1 := engine.NewTx()
	defer tx1.Commit()
	if err := g.PushRelabel(tx1, 1, []int{1}, 0); err != nil { // arc index 1 of node 1 is 1→3
		t.Fatal(err)
	}
	if n := g.Net(); n.Excess(1) != 1 || n.Excess(3) != 4 || n.Arcs(1)[1].Cap != 0 {
		t.Fatalf("push of min(5, 4) left excess %d and %d, cap %d; want 1, 4 and 0", n.Excess(1), n.Excess(3), n.Arcs(1)[1].Cap)
	}
	// Another transaction touching node 3 conflicts...
	tx2 := engine.NewTx()
	defer tx2.Abort()
	if _, err := g.Excess(tx2, 3); !engine.IsConflict(err) {
		t.Fatalf("read of push target should conflict, got %v", err)
	}
	// ...but node 2 is free.
	if _, err := g.Excess(tx2, 2); err != nil {
		t.Fatal(err)
	}
}

// snapshot copies every arc capacity, excess and height of n.
func snapshot(n *Net) [3]any {
	arcs := make([][]Arc, n.Len())
	for u := range arcs {
		arcs[u] = append([]Arc(nil), n.arcs[u]...)
	}
	return [3]any{arcs, append([]int64(nil), n.excess...), append([]int64(nil), n.height...)}
}

// TestRefusedWriteWritesNothing: PushRelabel takes every lock before its
// first write, so a plan refused at its second push leaves the network
// byte-identical, and so does a plan that moves no flow; neither seals
// the transaction, which can still abort.
func TestRefusedWriteWritesNothing(t *testing.T) {
	g := NewRW(seeded())
	before := snapshot(g.Net())
	tx1 := engine.NewTx()
	if _, err := g.Height(tx1, 3); err != nil {
		t.Fatal(err)
	}
	tx2 := engine.NewTx()
	// Push back to the source (granted), then to node 3 (refused:
	// tx1 reads it), then relabel.
	if err := g.PushRelabel(tx2, 1, []int{0, 1}, 7); !engine.IsConflict(err) {
		t.Fatalf("a push into a node another transaction reads should conflict, got %v", err)
	}
	if after := snapshot(g.Net()); !reflect.DeepEqual(after, before) {
		t.Errorf("a refused plan wrote the network:\nbefore %v\nafter  %v", before, after)
	}
	tx2.Abort()
	tx1.Abort()

	tx3 := engine.NewTx()
	for _, tc := range []struct {
		u    int64
		plan []int
	}{
		{1, []int{1, 1}}, // a repeat
		{1, []int{1, 0}}, // out of order
		{1, []int{0, 1}}, // the first push takes all 5 units
		{2, []int{1}},    // node 2 has no excess
	} {
		if err := g.PushRelabel(tx3, tc.u, tc.plan, 0); err == nil || engine.IsConflict(err) {
			t.Errorf("plan %v from node %d: err = %v, want an infeasible-plan error", tc.plan, tc.u, err)
		}
	}
	if after := snapshot(g.Net()); !reflect.DeepEqual(after, before) {
		t.Errorf("an infeasible plan wrote the network:\nbefore %v\nafter  %v", before, after)
	}
	tx3.Abort()
}

// TestNeighborsInPlace pins Neighbors' contract: the list is the
// network's own, so it shows the holder's pushes, and no other
// transaction can push into the node while the holder holds it.
func TestNeighborsInPlace(t *testing.T) {
	n := diamond()
	n.AddExcess(0, 7)
	if err := n.Push(0, 1, 4); err != nil { // 0→2, so 2→0 has capacity
		t.Fatal(err)
	}
	g := NewRW(n)

	tx1 := engine.NewTx()
	arcs, err := g.Neighbors(tx1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(arcs) != 2 || arcs[0].To != 1 || arcs[1].To != 2 || arcs[0].Cap != 5 || arcs[1].Cap != 3 {
		t.Fatalf("Neighbors = %+v", arcs)
	}
	if err := g.PushRelabel(tx1, 0, []int{0}, 0); err != nil { // node 0's 3 units along 0→1
		t.Fatal(err)
	}
	if arcs[0].Cap != 2 {
		t.Errorf("after the holder's push of 3, the list shows cap %d, want 2", arcs[0].Cap)
	}
	// Node 2 is free, but pushing along 2→0 writes node 0's reverse arc.
	tx2 := engine.NewTx()
	if err := g.PushRelabel(tx2, 2, []int{0}, 0); !engine.IsConflict(err) {
		t.Fatalf("a push into a node another transaction holds should conflict, got %v", err)
	}
	if arcs[1].Cap != 3 {
		t.Errorf("a refused push changed the holder's list: cap %d, want 3", arcs[1].Cap)
	}
	tx2.Abort()
	tx1.Commit()
}

func TestSelfLoopIgnored(t *testing.T) {
	n := NewNet(2, 0, 1)
	n.AddEdge(0, 0, 5)
	if len(n.Arcs(0)) != 0 {
		t.Error("self loop should be dropped")
	}
}

// TestShippedPointsShareOneScheme: the shipped constructors prove and
// synthesize each point once, so two graphs at one point share its
// scheme, whatever their nets and partition counts, while NewGraph
// still proves and synthesizes every spec it is given.
func TestShippedPointsShareOneScheme(t *testing.T) {
	a, b := NewPartitioned(diamond(), 4), NewPartitioned(NewNet(64, 0, 63), 32)
	if a.mgr.Scheme() != b.mgr.Scheme() {
		t.Error("two NewPartitioned graphs built two schemes")
	}
	if NewRW(diamond()).mgr.Scheme() != NewRW(diamond()).mgr.Scheme() {
		t.Error("two NewRW graphs built two schemes")
	}
	if NewExclusive(diamond()).mgr.Scheme() == a.mgr.Scheme() {
		t.Error("the ex and part points share a scheme")
	}
	g, err := NewGraph(diamond(), RWSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.mgr.Scheme() == NewRW(diamond()).mgr.Scheme() {
		t.Error("NewGraph reused a shipped scheme")
	}
}
