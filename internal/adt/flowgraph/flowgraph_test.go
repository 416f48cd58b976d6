package flowgraph

import (
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
	// unpush restores exactly.
	n.unpush(0, 0, 3)
	if n.Arcs(0)[0].Cap != 5 || n.Excess(1) != 0 || n.Excess(0) != 0 {
		t.Error("unpush did not restore")
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
	if err := g.Relabel(tx3, 1, 2); !engine.IsConflict(err) {
		t.Fatalf("relabel under readers should conflict, got %v", err)
	}
	// A relabel of node 2 proceeds.
	if err := g.Relabel(tx3, 2, 2); err != nil {
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

func TestPushLocksBothEndpoints(t *testing.T) {
	g := NewRW(diamond())
	// Saturate source edge so a push is feasible from node 1.
	seed := engine.NewTx()
	if err := g.Push(seed, 0, 0, 5); err != nil { // 0→1
		t.Fatal(err)
	}
	seed.Commit()

	tx1 := engine.NewTx()
	defer tx1.Abort()
	if err := g.Push(tx1, 1, 1, 4); err != nil { // arc index 1 of node 1 is 1→3
		t.Fatal(err)
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

func TestPushUndoRestores(t *testing.T) {
	g := NewRW(diamond())
	tx := engine.NewTx()
	if err := g.Push(tx, 0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.Relabel(tx, 1, 7); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	n := g.Net()
	if n.Arcs(0)[0].Cap != 5 || n.Excess(1) != 0 || n.Height(1) != 0 {
		t.Errorf("abort did not restore: cap=%d excess=%d height=%d",
			n.Arcs(0)[0].Cap, n.Excess(1), n.Height(1))
	}
}

// TestNeighborsInPlace pins Neighbors' contract: the list is the
// network's own, so it shows the holder's pushes, and no other
// transaction can push into the node while the holder holds it.
func TestNeighborsInPlace(t *testing.T) {
	g := NewRW(diamond())
	seed := engine.NewTx()
	if err := g.Push(seed, 0, 1, 4); err != nil { // 0→2, so 2→0 has capacity
		t.Fatal(err)
	}
	seed.Commit()

	tx1 := engine.NewTx()
	arcs, err := g.Neighbors(tx1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(arcs) != 2 || arcs[0].To != 1 || arcs[1].To != 2 || arcs[0].Cap != 5 || arcs[1].Cap != 3 {
		t.Fatalf("Neighbors = %+v", arcs)
	}
	if err := g.Push(tx1, 0, 0, 3); err != nil {
		t.Fatal(err)
	}
	if arcs[0].Cap != 2 {
		t.Errorf("after the holder's push of 3, the list shows cap %d, want 2", arcs[0].Cap)
	}
	// Node 2 is free, but pushing along 2→0 writes node 0's reverse arc.
	tx2 := engine.NewTx()
	if err := g.Push(tx2, 2, 0, 1); !engine.IsConflict(err) {
		t.Fatalf("a push into a node another transaction holds should conflict, got %v", err)
	}
	if arcs[1].Cap != 3 {
		t.Errorf("a refused push changed the holder's list: cap %d, want 3", arcs[1].Cap)
	}
	tx2.Abort()
	tx1.Abort()
	if arcs[0].Cap != 5 {
		t.Errorf("abort left cap %d in the list, want 5", arcs[0].Cap)
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	n := NewNet(2, 0, 1)
	n.AddEdge(0, 0, 5)
	if len(n.Arcs(0)) != 0 {
		t.Error("self loop should be dropped")
	}
}
