// Package integration exercises transactions that span multiple guarded
// structures with different conflict-detection schemes — the situation
// Borůvka's iterations create (union-find general gatekeeper + abstract-
// locked component lists) and the general shape of Galois applications:
// one transaction, many boosted objects, one undo log.
package integration

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"commlat/internal/adt/accum"
	"commlat/internal/adt/intset"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/engine"
)

// TestCrossStructureRollback: a transaction mutates a gatekept set, an
// abstract-locked accumulator and a general-gatekept union-find, then
// aborts; every structure must roll back.
func TestCrossStructureRollback(t *testing.T) {
	set := intset.NewGatekept(intset.NewHashRep())
	acc := accum.New()
	uf := unionfind.NewGK(8)

	tx := engine.NewTx()
	if _, err := set.Add(tx, 1); err != nil {
		t.Fatal(err)
	}
	if err := acc.Inc(tx, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := uf.Union(tx, 1, 2); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	if len(set.Snapshot()) != 0 {
		t.Errorf("set kept %v", set.Snapshot())
	}
	if acc.Total() != 0 {
		t.Errorf("accumulator kept %d", acc.Total())
	}
	if uf.Forest().Same(1, 2) {
		t.Error("union survived the abort")
	}
}

// TestCrossStructureConflictMidway: a conflict on the THIRD structure
// aborts the transaction, and the first two structures' effects must
// unwind even though their own detectors saw no conflict.
func TestCrossStructureConflictMidway(t *testing.T) {
	set := intset.NewGatekept(intset.NewHashRep())
	acc := accum.New()
	uf := unionfind.NewGK(8)

	// tx1 holds a union that tx2 will collide with.
	tx1 := engine.NewTx()
	if _, err := uf.Union(tx1, 1, 2); err != nil { // loser 1
		t.Fatal(err)
	}

	tx2 := engine.NewTx()
	if _, err := set.Add(tx2, 42); err != nil {
		t.Fatal(err)
	}
	if err := acc.Inc(tx2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := uf.Find(tx2, 1); !engine.IsConflict(err) {
		t.Fatalf("find(1) should conflict with the live union, got %v", err)
	}
	tx2.Abort()
	tx1.Commit()

	if len(set.Snapshot()) != 0 {
		t.Errorf("set kept %v after cross-structure abort", set.Snapshot())
	}
	if acc.Total() != 0 {
		t.Errorf("accumulator kept %d after cross-structure abort", acc.Total())
	}
	if !uf.Forest().Same(1, 2) {
		t.Error("committed union lost")
	}
}

// TestCrossStructureSpeculativeWorkload drives transactions touching all
// three structures concurrently through the executor and validates the
// combined final state.
func TestCrossStructureSpeculativeWorkload(t *testing.T) {
	const n = 64
	set := intset.NewGatekept(intset.NewHashRep())
	acc := accum.New()
	uf := unionfind.NewGK(n)

	type op struct {
		x    int64
		a, b int64
	}
	r := rand.New(rand.NewSource(5))
	var items []op
	for i := 0; i < 200; i++ {
		items = append(items, op{x: int64(i), a: int64(r.Intn(n)), b: int64(r.Intn(n))})
	}
	var mu sync.Mutex
	var committedUnions [][2]int64
	stats, err := engine.RunItems(items, engine.Options{Workers: 8}, func(tx *engine.Tx, o op, _ *engine.Worklist[op]) error {
		if _, err := set.Add(tx, o.x); err != nil {
			return err
		}
		if err := acc.Inc(tx, 1); err != nil {
			return err
		}
		if _, err := uf.Union(tx, o.a, o.b); err != nil {
			return err
		}
		mu.Lock()
		committedUnions = append(committedUnions, [2]int64{o.a, o.b})
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed != 200 {
		t.Fatalf("committed %d, want 200", stats.Committed)
	}
	if got := len(set.Snapshot()); got != 200 {
		t.Errorf("set has %d elements, want 200", got)
	}
	if acc.Total() != 200 {
		t.Errorf("accumulator = %d, want 200", acc.Total())
	}
	ref := unionfind.NewForest(n)
	for _, u := range committedUnions {
		ref.Union(u[0], u[1])
	}
	for i := int64(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			if uf.Forest().Same(i, j) != ref.Same(i, j) {
				t.Fatalf("partition mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// kdGrid presents a kd-gk tree over the 4×4×4 integer grid as a set of
// the keys 0..63: key x is the point whose coordinates are x's base-4
// digits. Its membership is read back through the gatekeeper, which
// after a drained run must refuse nothing.
type kdGrid struct {
	t  *kdtree.GKTree
	tb testing.TB
}

func gridPoint(x int64) kdtree.Point {
	return kdtree.Point{float64(x & 3), float64(x >> 2 & 3), float64(x >> 4)}
}

func (k kdGrid) Add(tx *engine.Tx, x int64) (bool, error)    { return k.t.Add(tx, gridPoint(x)) }
func (k kdGrid) Remove(tx *engine.Tx, x int64) (bool, error) { return k.t.Remove(tx, gridPoint(x)) }
func (k kdGrid) Contains(tx *engine.Tx, x int64) (bool, error) {
	return k.t.Contains(tx, gridPoint(x))
}
func (k kdGrid) Nearest(tx *engine.Tx, x int64) (kdtree.Point, error) {
	return k.t.Nearest(tx, gridPoint(x))
}

func (k kdGrid) Snapshot() []int64 {
	var out []int64
	tx := engine.NewTx()
	defer tx.Commit()
	for x := int64(0); x < 64; x++ {
		in, err := k.t.Contains(tx, gridPoint(x))
		if err != nil {
			k.tb.Errorf("detector not drained: contains(%d) after the run: %v", x, err)
		}
		if in {
			out = append(out, x)
		}
	}
	return out
}

// TestCommittedHistoryOrderFree runs a contended set stream under two
// real workers and checks the committed history against the final state
// with an oracle that needs no commit order: per key, the adds that
// returned true minus the removes that returned true is the key's final
// membership (so 0 or 1). A detector that lets an invocation observe an
// effect that is later undone — or runs check and execute non-atomically
// — breaks the balance.
//
// The kd-gk arm adds nearest queries to the mix. The balance cannot see
// what a query returned, so that arm also replays its committed
// transactions serially on a plain tree and compares every return. The
// order of the replay is the order in which the transactions stamped
// themselves from a hook that runs before the gatekeeper releases their
// invocations: whatever another transaction did between a stamp and the
// release was checked to commute with everything the stamped one did,
// so forward gatekeeping (§3.3.1) promises exactly this order is a
// serialization.
func TestCommittedHistoryOrderFree(t *testing.T) {
	const keys, opsPerTx = 64, 4
	nTx := 20000
	if testing.Short() {
		nTx /= 2
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	type op struct {
		kind int // 0 add, 1 remove, 2 contains, 3 nearest
		x    int64
	}
	// stream draws n transactions; of every 100 operations adds and
	// removes take 40 each less half of pNearest, nearest pNearest, and
	// contains the rest.
	stream := func(seed int64, n, pNearest int) [][opsPerTx]op {
		r := rand.New(rand.NewSource(seed))
		ops := make([][opsPerTx]op, n)
		for i := range ops {
			for j := range ops[i] {
				kind := 2
				if p := r.Intn(100); p < pNearest {
					kind = 3
				} else if p < 40+pNearest/2 {
					kind = 0
				} else if p < 80 {
					kind = 1
				}
				ops[i][j] = op{kind: kind, x: int64(r.Intn(keys))}
			}
		}
		return ops
	}
	setOps := stream(18, nTx, 0)
	kdOps := stream(19, nTx, 20)
	hashRep := func() intset.Rep { return intset.NewHashRep() }
	for _, arm := range []struct {
		name string
		set  intset.Set
		ops  [][opsPerTx]op
		// unsound marks detectors that run the effect before publishing
		// the invocation (ROADMAP item 1): their violations are reported,
		// not failed, until that item lands and flips this to false.
		unsound bool
	}{
		{"global-lock", intset.NewGlobalLock(hashRep()), setOps, false},
		{"rw-lock", intset.NewRWLocked(hashRep()), setOps, false},
		{"forward", intset.NewGatekept(hashRep()), setOps, false},
		{"cascade", intset.NewCascaded(hashRep()), setOps, true},
		{"sharded", intset.NewShardedCascaded(hashRep, 4), setOps, true},
		{"kd-gk", kdGrid{kdtree.NewGK(), t}, kdOps, false},
	} {
		t.Run(arm.name, func(t *testing.T) {
			set, ops, nTx := arm.set, arm.ops, len(arm.ops)
			items := make([]int, nTx)
			for i := range items {
				items[i] = i
			}
			// rets[i] holds item i's returns from its last attempt, which
			// is the one that committed; one worker owns an item at a time.
			rets := make([][opsPerTx]bool, nTx)
			kd, isKD := set.(kdGrid)
			var near [][opsPerTx]kdtree.Point // nearest's returns, like rets
			var orderMu sync.Mutex
			var order []int // committed items in stamp order
			if isKD {
				near = make([][opsPerTx]kdtree.Point, nTx)
			}
			stats, err := engine.RunItems(items, engine.Options{Workers: 2, Seed: 18},
				func(tx *engine.Tx, i int, _ *engine.Worklist[int]) error {
					for j, o := range ops[i] {
						var err error
						switch o.kind {
						case 0:
							rets[i][j], err = set.Add(tx, o.x)
						case 1:
							rets[i][j], err = set.Remove(tx, o.x)
						case 2:
							rets[i][j], err = set.Contains(tx, o.x)
						default:
							near[i][j], err = kd.Nearest(tx, o.x)
						}
						if err != nil {
							return err
						}
						if isKD {
							// The gatekeeper's one mutex is handed back to
							// the worker that just released it nearly every
							// time, so two workers interleave whole runs of
							// transactions (aborts: 2 in 4,000). Yielding
							// between operations lets the waiter in, and the
							// arm then overlaps at operation grain (aborts:
							// one transaction in ten) — which is what gives
							// the replay something to catch.
							runtime.Gosched()
						}
					}
					if isKD {
						// Registered last, so it runs first when the
						// transaction ends: before the gatekeeper's release.
						tx.OnRelease(func() {
							if tx.Status() == engine.Committed {
								orderMu.Lock()
								order = append(order, i)
								orderMu.Unlock()
							}
						})
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Committed != uint64(nTx) {
				t.Fatalf("committed %d transactions, want %d", stats.Committed, nTx)
			}
			var balance [keys]int
			for i := range ops {
				for j, o := range ops[i] {
					if rets[i][j] && o.kind == 0 {
						balance[o.x]++
					} else if rets[i][j] && o.kind == 1 {
						balance[o.x]--
					}
				}
			}
			for _, x := range set.Snapshot() {
				balance[x]--
			}
			bad := 0
			for _, b := range balance {
				if b != 0 {
					bad++
				}
			}
			// Drained: with nothing live, one transaction may write every
			// key; a leaked lock or logged invocation would refuse it.
			probe := engine.NewTx()
			for x := int64(0); x < keys; x++ {
				if _, err := set.Add(probe, x); err != nil {
					t.Errorf("detector not drained: add(%d) after the run: %v", x, err)
				}
				if _, err := set.Remove(probe, x); err != nil {
					t.Errorf("detector not drained: remove(%d) after the run: %v", x, err)
				}
			}
			probe.Abort()
			if isKD {
				if len(order) != nTx {
					t.Fatalf("%d transactions stamped a commit, want %d", len(order), nTx)
				}
				ref := kdtree.New()
				for _, i := range order {
					for j, o := range ops[i] {
						p := gridPoint(o.x)
						got, want := any(rets[i][j]), any(nil)
						switch o.kind {
						case 0:
							want = ref.Add(p)
						case 1:
							want = ref.Remove(p)
						case 2:
							want = ref.Contains(p)
						default:
							got, want = near[i][j], ref.Nearest(p)
						}
						if got != want {
							t.Fatalf("item %d op %d (kind %d on %v) returned %v; replayed in commit order it returns %v",
								i, j, o.kind, p, got, want)
						}
					}
				}
			}
			t.Logf("%d transactions, %d aborts", nTx, stats.Aborts)
			switch {
			case bad != 0 && arm.unsound:
				t.Skipf("%d of %d keys have successful adds minus removes != final membership (%d aborts): effect runs before publication, ROADMAP item 1", bad, keys, stats.Aborts)
			case bad != 0:
				t.Errorf("%d of %d keys have successful adds minus removes != final membership (%d aborts)", bad, keys, stats.Aborts)
			}
		})
	}
}
