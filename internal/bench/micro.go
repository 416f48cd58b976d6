// Detector micro-benchmarks: the raw cost of one guarded operation under
// each conflict detector, plus window sweeps for the disequality index.
// Micros is the one table of them, and two harnesses range over it:
// `commlat bench` runs the rows via testing.Benchmark to emit
// BENCH_fresh.json for the allocation-regression gate, and the root
// bench_test.go runs them as BenchmarkMicro/<row> (row names are stable,
// so EXPERIMENTS.md numbers stay comparable across PRs).
//
// All benchmarks drive transactions through the engine.GetTx/PutTx pool:
// with the tagged value representation and pooled detector records, the
// indexed fast paths run at 0 allocs/op in steady state, and the CI gate
// (scripts/allocgate against BENCH_budget.json) keeps them there.
package bench

import (
	"fmt"
	"testing"

	"commlat/internal/abslock"
	"commlat/internal/adt/intset"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/apps/cluster"
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
	"commlat/internal/telemetry"
	"commlat/internal/workload"
)

// Micro is one named detector micro-benchmark.
type Micro struct {
	Name string
	F    func(b *testing.B)
}

// Micros lists every detector micro-benchmark in a stable order
// (sub-rows join with '/'). BENCH_budget.json budgets each by name.
func Micros() []Micro {
	// The forward gatekeeper running figure 2's precise set spec.
	forward := func(b *testing.B) { benchSetAdd(b, intset.NewGatekept(intset.NewHashRep())) }
	// The lattice cascade running the same spec. The steady state is
	// disjoint-key, so nearly every iteration is a stage-1
	// signature-filter admission with zero locks taken by the detector.
	cascade := func(b *testing.B) { benchSetAdd(b, intset.NewCascaded(intset.NewHashRep())) }
	// The cascade through the batched admission path at a fixed batch
	// size. The acceptance target is DetectorCascadeBatch32 at ≥2× the
	// serial cascade's throughput.
	cascadeBatch := func(batch int) func(*testing.B) {
		return func(b *testing.B) { benchSetAddBatch(b, intset.NewCascaded(intset.NewHashRep()), batch) }
	}
	// The hand-built general gatekeeper for union-find (undo/redo
	// journal, rollback checks).
	general := func(b *testing.B) { benchUnionFind(b, unionfind.NewGK(1<<16)) }

	ms := []Micro{
		// Synthesized read/write abstract locks (figure 3's spec)
		// guarding a hash set.
		{"DetectorAbslockRW", func(b *testing.B) { benchSetAdd(b, intset.NewRWLocked(intset.NewHashRep())) }},
		{"DetectorAbslockReentrant", DetectorAbslockReentrant},
		{"DetectorAbslockHeld256", DetectorAbslockHeld256},
		// The ⊥ spec — one global exclusive lock.
		{"DetectorGlobalLock", func(b *testing.B) { benchSetAdd(b, intset.NewGlobalLock(intset.NewHashRep())) }},
		// The footnote-6 guarded-mode scheme: figure 2 with locks.
		{"DetectorLiberalLock", func(b *testing.B) { benchSetAdd(b, intset.NewLiberalLocked(intset.NewHashRep())) }},
		{"DetectorForwardGatekeeper", forward},
		{"DetectorCascadeGatekeeper", cascade},
		{"DetectorGeneralGatekeeper", general},
		{"DetectorUnionFindGKFind", DetectorUnionFindGKFind},
		// Budget 7, none of it the gatekeeper's: see the function.
		{"DetectorForwardKDTree", DetectorForwardKDTree},
		// The spec-interpreting generic gatekeeper — ablation against the
		// concrete one above (same conditions, different machinery).
		{"DetectorUnionFindGeneric", func(b *testing.B) { benchUnionFind(b, unionfind.NewGeneric(1<<16)) }},
		// Union-find under abstract locks.
		{"DetectorUnionFindML", func(b *testing.B) { benchUnionFind(b, unionfind.NewML(1<<16)) }},
		{"CondEval", CondEval},
		{"DetectorForwardGatekeeper/traced", traced(forward)},
		{"DetectorCascadeGatekeeper/traced", traced(cascade)},
		{"DetectorGeneralGatekeeper/traced", traced(general)},
		{"TelemetryEmit", TelemetryEmit},
		{"CascadeSlowPath", CascadeSlowPath},
		{"ForwardScanFallback", ForwardScanFallback},
		{"DetectorCascadeBatch8", cascadeBatch(8)},
		{"DetectorCascadeBatch32", cascadeBatch(32)},
		{"DetectorCascadeBatch128", cascadeBatch(128)},
		{"DetectorCascadeSharded", DetectorCascadeSharded},
		{"DetectorCascadeShardedCross", DetectorCascadeShardedCross},
		{"DetectorCascadePairSerial", DetectorCascadePairSerial},
		// The cascade's latency row is the instrumented fast path (one
		// clock read and one histogram add per admission); the batch row
		// adds publish/probe phase marks plus one group flight record per
		// batch.
		{"DetectorForwardGatekeeper/latency", withLatency(forward)},
		{"DetectorCascadeGatekeeper/latency", withLatency(cascade)},
		{"DetectorCascadeBatch32/latency", withLatency(cascadeBatch(32))},
		{"DetectorCascadeSharded/latency", withLatency(DetectorCascadeSharded)},
		{"TelemetryLatencyObserve", TelemetryLatencyObserve},
		{"TelemetryFlightRecord", TelemetryFlightRecord},
	}
	// Window sweeps: cost per op against the number of active invocations
	// (flat for the indexed detectors; CascadeBatch falls with the batch).
	for _, sweep := range []struct {
		name string
		f    func(b *testing.B, window int)
	}{
		{"ForwardIndexed/indexed", func(b *testing.B, w int) { ForwardWindow(b, false, w) }},
		{"CascadeIndexed", CascadeWindow},
		{"GeneralIndexed/set/indexed", func(b *testing.B, w int) { GeneralSetWindow(b, false, w) }},
		{"CascadeBatch/batch=8", func(b *testing.B, w int) { CascadeBatchWindow(b, 8, w) }},
		{"CascadeBatch/batch=32", func(b *testing.B, w int) { CascadeBatchWindow(b, 32, w) }},
		{"CascadeBatch/batch=128", func(b *testing.B, w int) { CascadeBatchWindow(b, 128, w) }},
	} {
		for _, w := range []int{64, 512, 4096} {
			ms = append(ms, Micro{fmt.Sprintf("%s/window=%d", sweep.name, w), func(b *testing.B) { sweep.f(b, w) }})
		}
	}
	return ms
}

// benchSetAdd measures one guarded Add per iteration on keys cycling
// through a small window, transaction per op via the pool.
func benchSetAdd(b *testing.B, s intset.Set) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := engine.GetTx()
		if _, err := s.Add(tx, int64(i%1024)); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// must unwraps a constructor whose arguments are fixed here, so that it
// can fail only by a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// newRWSetManager is a lock manager over figure 3's read/write scheme.
func newRWSetManager() *abslock.Manager {
	return abslock.NewManager(must(abslock.Synthesize(intset.RWSpec())).Reduce(), nil)
}

// DetectorAbslockReentrant: one transaction reads a key, reads it three
// more times, upgrades it to a write and commits — the shape of a
// preflow discharge on one node. One new fast hold, three covered
// re-acquisitions, one in-place upgrade; ns/op is the whole transaction.
func DetectorAbslockReentrant(b *testing.B) {
	m := newRWSetManager()
	contains, add := m.Method("contains"), m.Method("add")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := engine.GetTx()
		k := core.VInt(int64(i % 1024))
		for r := 0; r < 4; r++ {
			if err := m.Acquire(tx, contains, k); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Acquire(tx, add, k); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// DetectorAbslockHeld256: one re-acquisition by a transaction that holds
// 256 locks. The owner's hold lookup walks one hash bucket, so ns/op
// stays that of a covered re-acquisition in DetectorAbslockReentrant
// rather than growing with the locks held.
func DetectorAbslockHeld256(b *testing.B) {
	m := newRWSetManager()
	contains := m.Method("contains")
	tx := engine.NewTx()
	for k := int64(0); k < 256; k++ {
		if err := m.Acquire(tx, contains, core.VInt(k)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Acquire(tx, contains, core.VInt(int64(i&255))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tx.Commit()
}

// benchSetAddBatch is benchSetAdd through the batched admission
// pipeline: each group of `batch` adds shares one representation lock
// acquisition, one combined signature probe, and one group commit, so
// the per-operation cost reported is the amortized batch cost. Keys
// cycle through the same 1024-element window as benchSetAdd — the
// steady state is disjoint-key, whole-batch admission.
func benchSetAddBatch(b *testing.B, s *intset.CascadeSet, batch int) {
	b.Helper()
	var cache engine.TxCache
	txs := make([]*engine.Tx, batch)
	xs := make([]int64, batch)
	rets := make([]bool, batch)
	errs := make([]error, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		cache.GetBatch(txs[:n])
		for k := 0; k < n; k++ {
			xs[k] = int64((i + k) & 1023)
		}
		s.AddBatch(txs[:n], xs[:n], rets[:n], errs[:n])
		for k := 0; k < n; k++ {
			if errs[k] != nil {
				b.Fatal(errs[k])
			}
		}
		cache.PutBatch(txs[:n])
		i += n
	}
}

func benchUnionFind(b *testing.B, uf unionfind.Sets) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := engine.GetTx()
		if _, err := uf.Union(tx, int64(i%(1<<15)), int64(i%(1<<15))+1); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// DetectorUnionFindGKFind: what Borůvka asks of the hand-built general
// gatekeeper, which DetectorGeneralGatekeeper's root-to-root unions do
// not — finds that compress a path and unions of fresh representatives
// that compress on the way, all journaled. One iteration is one
// transaction of eight guarded calls on eight fresh elements (allocs/op
// is an integer: any allocation inside the transaction shows as ≥ 1),
// on a structure rebuilt every 2¹⁵ calls, whose cost amortizes to zero.
func DetectorUnionFindGKFind(b *testing.B) {
	const perForest = 1 << 15
	b.ReportAllocs()
	var uf *unionfind.GK
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := int64(i * 8 % perForest)
		if e == 0 {
			uf = unionfind.NewGK(perForest)
		}
		tx := engine.GetTx()
		var err error
		union := func(a, b int64) {
			if err == nil {
				_, err = uf.Union(tx, a, b)
			}
		}
		find := func(a int64) {
			if err == nil {
				_, err = uf.Find(tx, a)
			}
		}
		union(e, e+1) // a chain e → e+1 → e+2 → e+3
		union(e+1, e+2)
		union(e+2, e+3)
		find(e) // compresses two links
		union(e+4, e+5)
		union(e+5, e+6)
		union(e, e+4) // compresses e+4's path, then joins the two roots
		find(e + 1)   // compresses across the union edge
		if err != nil {
			b.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// DetectorForwardKDTree: what clustering asks of the forward gatekeeper
// through kdtree.GKTree, which no intset row reaches — ref-kind
// arguments the disequality index cannot key, a logged dist(a, r) per
// nearest, an undo hook per mutation. One iteration is one transaction
// shaped like cluster.Step: contains(p), n = nearest(p), nearest(n), and
// in every third transaction remove(p), remove(n), add(midpoint), with p
// there the midpoint the last such transaction added, so that all three
// change the tree. The tree is reseeded (off the clock) every 2¹²
// transactions.
//
// Its budget is what the value domain and the wrapper allocate, counted
// per transaction: every core.V(Point) boxes its point — one per
// argument and one per nearest result, 5 in the queries and 3 more in
// the mutations of every third transaction, 6 on average — and each of
// those three mutations allocates its Undo closure, 1 on average: 7.
// The tree's own bucket growth adds a few hundredths, so allocs/op
// reads 7, and one allocation per transaction on the gatekeeper's
// logged path reads 8.
func DetectorForwardKDTree(b *testing.B) {
	const perTree = 1 << 12
	pts := workload.RandomPoints(perTree, 1000, 1)
	b.ReportAllocs()
	var t *kdtree.GKTree
	var merged kdtree.Point // the last midpoint added; in the tree
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perTree == 0 {
			b.StopTimer()
			t = kdtree.NewGK()
			t.Seed(pts)
			merged = pts[0]
			b.StartTimer()
		}
		p, merge := pts[i%perTree], i%3 == 2
		if merge {
			p = merged
		}
		tx := engine.GetTx()
		_, err := t.Contains(tx, p)
		var n kdtree.Point
		if err == nil {
			n, err = t.Nearest(tx, p)
		}
		if err == nil {
			_, err = t.Nearest(tx, n)
		}
		if err == nil && merge {
			merged = cluster.Midpoint(p, n)
			if _, err = t.Remove(tx, p); err == nil {
				_, err = t.Remove(tx, n)
			}
			if err == nil {
				_, err = t.Add(tx, merged)
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// traced runs a row with the telemetry event trace enabled (unsampled):
// the cost of instrumented speculation, which must stay at 0 allocs/op.
func traced(f func(*testing.B)) func(*testing.B) {
	return func(b *testing.B) {
		telemetry.EnableTrace(1<<12, 1)
		defer telemetry.DisableTrace()
		f(b)
	}
}

// withLatency runs a row with the stage-latency histograms and the
// flight recorder both enabled: the fully instrumented admission cost.
// Like the traced rows, instrumented admissions must stay at 0
// allocs/op — stage marks are atomic adds into fixed arrays and flight
// records are stack-built into pre-sized rings.
func withLatency(f func(*testing.B)) func(*testing.B) {
	return func(b *testing.B) {
		telemetry.EnableLatency()
		telemetry.EnableFlight(1 << 10)
		defer telemetry.DisableLatency()
		defer telemetry.DisableFlight()
		f(b)
	}
}

// TelemetryLatencyObserve measures one enabled stage observation — the
// clock read plus two atomic adds every instrumented stage boundary
// pays.
func TelemetryLatencyObserve(b *testing.B) {
	telemetry.EnableLatency()
	defer telemetry.DisableLatency()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := telemetry.LatClock()
		telemetry.StageObserve(i&7, telemetry.StageSigFilter, t0)
	}
}

// TelemetryFlightRecord measures one enabled flight-record append: a
// stack-built record copied into the worker's ring slot.
func TelemetryFlightRecord(b *testing.B) {
	telemetry.EnableFlight(1 << 10)
	defer telemetry.DisableFlight()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := telemetry.FlightRecord{Tx: uint64(i), Verdict: telemetry.FlightAdmitted}
		rec.Mark(telemetry.StageSigFilter, 64)
		//commvet:ignore benchmark measures the enabled path; a gate here would measure the gate
		telemetry.RecordFlight(i&7, &rec)
	}
}

// TelemetryEmit measures one enabled ring-buffer event emission — the
// marginal cost tracing adds to every lifecycle edge.
func TelemetryEmit(b *testing.B) {
	telemetry.EnableTrace(1<<12, 1)
	defer telemetry.DisableTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		//commvet:ignore benchmark measures the enabled path; a gate here would measure the gate
		telemetry.Emit(i&7, telemetry.EvBegin, uint64(i), int64(i), 0, 0, 0)
	}
}

// CondEval: one interpreted evaluation of figure 2's add/contains
// condition.
func CondEval(b *testing.B) {
	cond := intset.PreciseSpec().Cond("add", "contains")
	env := &core.PairEnv{
		Inv1: core.NewInvocation("add", []core.Value{core.V(int64(1))}, core.VBool(true)),
		Inv2: core.NewInvocation("contains", []core.Value{core.V(int64(2))}, core.VBool(false)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Eval(cond, env); err != nil {
			b.Fatal(err)
		}
	}
}

// hold opens the transaction that keeps n invocations, on keys held(0)
// … held(n-1), active in a detector for a row's duration; the row
// commits it when done.
func hold(b *testing.B, n int, held func(i int) int64, invoke func(*engine.Tx, int64) error) *engine.Tx {
	b.Helper()
	holder := engine.NewTx()
	for i := 0; i < n; i++ {
		if err := invoke(holder, held(i)); err != nil {
			b.Fatal(err)
		}
	}
	return holder
}

// window is the shape the window rows share: a holder keeps n
// invocations active, and each measured iteration invokes once more, on
// the key fresh(i), in a pooled transaction of its own.
func window(b *testing.B, n int, held, fresh func(i int) int64, invoke func(*engine.Tx, int64) error) {
	b.Helper()
	defer hold(b, n, held, invoke).Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := engine.GetTx()
		if err := invoke(tx, fresh(i)); err != nil {
			b.Error(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// The distinct-key rows hold the negative keys -1 … -window and measure
// on 8192 keys far above them, so no measured key meets a held one.
func heldBelow(i int) int64  { return -int64(i + 1) }
func freshAbove(i int) int64 { return 1<<40 | int64(i&8191) }
func sameKey(i int) int64    { return int64(i) }

// added is the effect of an add that changed the set: the return value
// is all of it that the detectors log.
func added() gatekeeper.Effect { return gatekeeper.Effect{Ret: core.VBool(true)} }

// ForwardWindow measures one forward-gatekept add against `window`
// active adds on distinct keys. Indexed probes miss in O(1); with the
// index disabled every active entry is scanned.
func ForwardWindow(b *testing.B, disable bool, n int) {
	b.Helper()
	g := must(gatekeeper.NewForwardConfig(intset.PreciseSpec(), nil, gatekeeper.Config{DisableIndex: disable}))
	window(b, n, heldBelow, freshAbove, func(tx *engine.Tx, k int64) error {
		_, err := g.Invoke(tx, "add", core.Args1(core.VInt(k)), added)
		return err
	})
}

// GeneralSetWindow is ForwardWindow's shape under the general
// gatekeeper: same spec, but every check replays through the undo/redo
// journal machinery.
func GeneralSetWindow(b *testing.B, disable bool, n int) {
	b.Helper()
	g := must(gatekeeper.NewGeneralConfig(intset.PreciseSpec(), nil, gatekeeper.Config{DisableIndex: disable}))
	window(b, n, heldBelow, freshAbove, func(tx *engine.Tx, k int64) error {
		_, err := g.Invoke(tx, "add", core.Args1(core.VInt(k)), func() gatekeeper.GEffect {
			return gatekeeper.GEffect{Ret: core.VBool(true)}
		})
		return err
	})
}

// cascadeAdd is one add of key k, changing the set, through c.
func cascadeAdd(c *gatekeeper.Cascade) func(*engine.Tx, int64) error {
	return func(tx *engine.Tx, k int64) error {
		_, err := c.Invoke(tx, "add", core.Args1(core.VInt(k)), added)
		return err
	}
}

// CascadeWindow measures one cascade-guarded add against `window`
// active adds on distinct keys: the incoming key's filter cell is
// empty, so every iteration is a stage-1 admission regardless of the
// window size — the cascade's answer to ForwardWindow.
func CascadeWindow(b *testing.B, n int) {
	b.Helper()
	window(b, n, heldBelow, freshAbove, cascadeAdd(must(gatekeeper.NewCascade(intset.PreciseSpec(), nil))))
}

// CascadeBatchWindow is CascadeWindow through the batched admission
// path: `held` active adds on distinct negative keys stay live while
// batches of `batch` disjoint positive keys admit and group-commit.
// Like CascadeWindow, the incoming cells are empty, so every batch
// admits whole on the combined-signature probe and the cost stays flat
// in `held`.
func CascadeBatchWindow(b *testing.B, batch, held int) {
	b.Helper()
	c := must(gatekeeper.NewCascade(intset.PreciseSpec(), nil))
	defer hold(b, held, heldBelow, cascadeAdd(c)).Commit()
	exec := func(run []gatekeeper.BatchOp) {
		for k := range run {
			run[k].Ret = core.VBool(true)
		}
	}
	base := int64(1) << 40
	var cache engine.TxCache
	ops := make([]gatekeeper.BatchOp, batch)
	txs := make([]*engine.Tx, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		cache.GetBatch(txs[:n])
		for k := 0; k < n; k++ {
			ops[k] = gatekeeper.BatchOp{
				Tx:     txs[k],
				Method: "add",
				Args:   core.Args1(core.VInt(base | int64((i+k)&8191))),
			}
		}
		p := c.InvokeBatch(ops[:n], exec)
		if p != n {
			b.Fatalf("batch admitted %d of %d disjoint keys", p, n)
		}
		engine.CommitBatch(txs[:n])
		cache.PutBatch(txs[:n])
		i += n
	}
}

// CascadeSlowPath forces every iteration through all three cascade
// stages: the incoming add reuses a key held by an active add, so the
// filter hits, the optimistic bucket scan surfaces the holder's slot,
// and the precise checker admits (both adds returned false).
func CascadeSlowPath(b *testing.B) {
	c := must(gatekeeper.NewCascade(intset.PreciseSpec(), nil))
	const n = 64
	window(b, n, sameKey, func(i int) int64 { return int64(i) % n }, func(tx *engine.Tx, k int64) error {
		_, err := c.Invoke(tx, "add", core.Args1(core.VInt(k)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(false)}
		})
		return err
	})
}

// scanFallbackSpec is a specification whose pair condition is ordered
// (Lt), which the disequality decomposition cannot index: every check
// takes the forward gatekeeper's scan-fallback path.
func scanFallbackSpec() *core.Spec {
	sig := &core.ADTSig{Name: "ordered", Methods: []core.MethodSig{
		{Name: "op", Params: []string{"x"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	s.Set("op", "op", core.Lt(core.Arg1(0), core.Arg2(0)))
	return s
}

// ForwardScanFallback measures one forward-gatekept invocation whose
// pair condition misses the disequality index: 64 active entries are
// scanned and precisely checked per op — the cost the index normally
// avoids, isolated.
func ForwardScanFallback(b *testing.B) {
	g := must(gatekeeper.NewForward(scanFallbackSpec(), nil))
	window(b, 64, sameKey, func(i int) int64 { return 1<<40 + int64(i&1023) }, func(tx *engine.Tx, k int64) error {
		_, err := g.Invoke(tx, "op", core.Args1(core.VInt(k)), added)
		return err
	})
}
