// Benchmarks regenerating the paper's tables and figures (§5) plus the
// detector micro-benchmarks, as loops over the tables cmd/commlat prints
// from: apps.Catalogue and bench.Micros. Run with
//
//	go test -bench=. -benchmem
//
// Table 1's rows are BenchmarkTable1/<app>/<variant> (and
// <app>/sequential, its baseline), Table 2's BenchmarkTable2/<input>/<scheme>,
// figures 10–12 BenchmarkFig/<app>/<variant>/threads=N, and the rows of
// `commlat bench` BenchmarkMicro/<row>.
package commlat_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"commlat/internal/abslock"
	"commlat/internal/adt/flowgraph"
	"commlat/internal/adt/intset"
	"commlat/internal/adt/unionfind"
	"commlat/internal/apps"
	"commlat/internal/bench"
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
	"commlat/internal/workload"
)

// benchSolves runs one guarded variant b.N times. ns/op covers the whole
// call, construction of the input and the guarded structure included;
// solve-ns/op is the solve alone, the time Table 1 and the figures
// compare.
func benchSolves(b *testing.B, v apps.Variant, workers int) {
	var solve time.Duration
	for i := 0; i < b.N; i++ {
		s, err := v.Run(engine.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		solve += s.Wall
	}
	b.ReportMetric(float64(solve.Nanoseconds())/float64(b.N), "solve-ns/op")
}

// BenchmarkTable1: single-threaded guarded runs against the sequential
// baseline (the overhead column), at `commlat table1`'s default sizes.
func BenchmarkTable1(b *testing.B) {
	sizes := apps.Sizes{RMFa: 6, RMFb: 6, Mesh: 24, Points: 600, Parts: 32, Seed: 1}
	for _, app := range apps.Catalogue(sizes) {
		b.Run(app.Key+"/sequential", func(b *testing.B) {
			var solve time.Duration
			for i := 0; i < b.N; i++ {
				_, d := app.Sequential()
				solve += d
			}
			b.ReportMetric(float64(solve.Nanoseconds())/float64(b.N), "solve-ns/op")
		})
		for _, v := range app.Reported() {
			b.Run(app.Key+"/"+v.Name, func(b *testing.B) { benchSolves(b, v, 1) })
		}
	}
}

// BenchmarkFig: the thread sweeps of figures 10–12.
func BenchmarkFig(b *testing.B) {
	sizes := apps.Sizes{RMFa: 6, RMFb: 6, Mesh: 32, Points: 800, Parts: 32, Seed: 1}
	for _, app := range apps.Catalogue(sizes) {
		for _, v := range app.Reported() {
			for _, th := range []int{1, 2, 4} {
				b.Run(fmt.Sprintf("%s/%s/threads=%d", app.Key, v.Name, th), func(b *testing.B) { benchSolves(b, v, th) })
			}
		}
	}
}

// BenchmarkTable2: the set microbenchmark, the paper's four schemes.
func BenchmarkTable2(b *testing.B) {
	const ops = 20000
	inputs := []struct {
		name string
		ops  []workload.SetOp
	}{{"distinct", workload.SetOpsDistinct(ops, 1)}, {"repeats", workload.SetOpsClasses(ops, 10, 1)}}
	for _, in := range inputs {
		for _, sc := range bench.Table2Schemes() {
			if sc.Extended {
				continue
			}
			b.Run(in.name+"/"+sc.Name, func(b *testing.B) {
				var lastAborts float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s := sc.New()
					b.StartTimer()
					lastAborts = bench.RunSetMicro(s, in.ops, 4).AbortRatio()
				}
				b.ReportMetric(lastAborts*100, "abort%")
			})
		}
	}
}

// BenchmarkMicro: the detector micro-benchmarks (ablation: raw cost per
// guarded op) — the rows `commlat bench -json` measures into
// BENCH_fresh.json for the CI allocation gate, under the same names.
func BenchmarkMicro(b *testing.B) {
	for _, m := range bench.Micros() {
		b.Run(m.Name, m.F)
	}
}

func BenchmarkSynthesize(b *testing.B) {
	spec := flowgraph.RWSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scheme, err := abslock.Synthesize(spec)
		if err != nil {
			b.Fatal(err)
		}
		scheme.Reduce()
	}
}

// --- Detector-runtime contention (§3.4 overhead under parallelism) ------
//
// The paper's detectors only pay off when their own runtime cost does not
// become the serial bottleneck (the o term of the §5 T·o/min(a,p)
// model). These two benches stress the hot paths of the two runtime
// detectors under parallel load with semantically disjoint operations —
// every conflict decision is "allow", so all measured cost is detector
// overhead. Run with -cpu 1,2,4 -benchmem to see scaling and allocation
// behaviour (EXPERIMENTS.md records before/after numbers).

// BenchmarkManagerContention exercises the abstract-lock manager's
// acquire/commit/release cycle: one write acquisition plus one read
// acquisition per iteration, on keys private to each worker.
func BenchmarkManagerContention(b *testing.B) {
	scheme, err := abslock.Synthesize(intset.RWSpec())
	if err != nil {
		b.Fatal(err)
	}
	mgr := abslock.NewManager(scheme.Reduce(), nil)
	var gid atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := gid.Add(1) << 32
		var i int64
		for pb.Next() {
			i++
			tx := engine.GetTx()
			k := base | (i & 1023)
			if err := mgr.PreAcquire(tx, "add", core.Args1(core.VInt(k))); err != nil {
				b.Error(err)
				tx.Abort()
				engine.PutTx(tx)
				continue
			}
			if err := mgr.PreAcquire(tx, "contains", core.Args1(core.VInt(k+(1<<20)))); err != nil {
				b.Error(err)
				tx.Abort()
				engine.PutTx(tx)
				continue
			}
			tx.Commit()
			engine.PutTx(tx)
		}
	})
}

func benchForwardHotPath(b *testing.B, activeMethod string, nActive int) {
	b.Helper()
	g, err := gatekeeper.NewForward(intset.PreciseSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	// A long-lived transaction keeps nActive invocations in the log, so
	// every benchmark invocation is checked against all of them ("checks")
	// or skips them via the trivially-true pair condition ("trivial").
	holder := engine.NewTx()
	defer holder.Commit()
	for i := int64(1); i <= int64(nActive); i++ {
		if _, err := g.Invoke(holder, activeMethod, core.Args1(core.VInt(-i)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(activeMethod == "add")}
		}); err != nil {
			b.Fatal(err)
		}
	}
	var gid atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := gid.Add(1) << 32
		var i int64
		for pb.Next() {
			i++
			tx := engine.GetTx()
			k := base | (i & 1023)
			if _, err := g.Invoke(tx, "contains", core.Args1(core.VInt(k)), func() gatekeeper.Effect {
				return gatekeeper.Effect{Ret: core.VBool(false)}
			}); err != nil {
				b.Error(err)
			}
			tx.Commit()
			engine.PutTx(tx)
		}
	})
}

// BenchmarkForwardHotPath exercises the forward gatekeeper's per-check
// path: "checks" evaluates a non-trivial condition against every active
// invocation, "trivial" measures the cost of skipping pairs whose
// condition is the constant true.
func BenchmarkForwardHotPath(b *testing.B) {
	b.Run("checks", func(b *testing.B) { benchForwardHotPath(b, "add", 8) })
	b.Run("trivial", func(b *testing.B) { benchForwardHotPath(b, "contains", 64) })
}

// --- Disequality-index ablations ---------------------------------------------
//
// The window sweeps of bench.Micros (ForwardIndexed/indexed,
// GeneralIndexed/set/indexed) with the index disabled — the seed
// behaviour: every active entry is scanned and checked, so cost grows
// linearly in the window where the indexed rows stay flat — and the
// union-find spec, whose conditions the index cannot key.

func BenchmarkIndexDisabled(b *testing.B) {
	for _, w := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("ForwardIndexed/scan/window=%d", w), func(b *testing.B) { bench.ForwardWindow(b, true, w) })
		b.Run(fmt.Sprintf("GeneralIndexed/set/scan/window=%d", w), func(b *testing.B) { bench.GeneralSetWindow(b, true, w) })
	}
	for _, w := range []int{64, 256} {
		b.Run(fmt.Sprintf("GeneralIndexed/unionfind-fallback/window=%d", w), func(b *testing.B) { benchGeneralUFWindow(b, w) })
	}
}

func benchGeneralUFWindow(b *testing.B, window int) {
	b.Helper()
	uf := unionfind.NewGeneric(1 << 20)
	holder := engine.NewTx()
	defer holder.Commit()
	for i := int64(0); i < int64(window); i++ {
		if _, err := uf.Find(holder, i); err != nil {
			b.Fatal(err)
		}
	}
	base := int64(1) << 16
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tx := engine.GetTx()
		a := base + int64(n%(1<<18))*2
		if _, err := uf.Union(tx, a, a+1); err != nil {
			b.Error(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}
