package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"commlat/internal/engine"
	"commlat/internal/parameter"
	"commlat/internal/telemetry"
)

// How a run's time budget (-seconds) is divided among the timed modes.
// The end-to-end pass times what BENCHMARK.json bounds; the traced pass
// spreads the same budget over every layer's instruments.
const (
	e2eShareP1  = 0.65
	e2eShareObs = 0.35

	layerShareP1      = 0.12
	layerShareP2      = 0.20
	layerShareObs     = 0.10
	layerShareTraced  = 0.15
	layerShareLattice = 0.28 // split among the siblings
)

// runner measures one workload at one seed.
type runner struct {
	cfg    *workloadCfg
	sz     sizes // the measured scale
	profSz sizes // the ParaMeter profile scale
	seed   int64
	budget time.Duration
	reps   int    // > 0: this many timed repetitions per mode, whatever the budget
	spans  string // file the traced pass's spans go to; "" for none

	attempted, failed int
	problems          []string
}

// count books one attempted run and its verdict.
func (r *runner) count(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %s: %v", r.cfg.Name, what, err))
	}
	return err == nil
}

func (r *runner) scenario(sz sizes) scenario { return apps[r.cfg.App].build(sz, r.seed) }

// repeat calls fn once as a discarded warm-up and then until the mode
// has both its least repetitions and its share of the budget.
func (r *runner) repeat(share float64, least int, fn func(warm bool)) {
	deadline := time.Now().Add(time.Duration(share * float64(r.budget)))
	fn(true)
	for n := 0; ; n++ {
		if r.reps > 0 {
			if n >= r.reps {
				return
			}
		} else if n >= least && !time.Now().Before(deadline) {
			return
		}
		fn(false)
	}
}

// sample is one repetition: a fresh set-up and one solve.
type sample struct {
	setup    float64 // seconds to generate the input and build ADT + detector
	wall     float64 // seconds the solve took
	stats    engine.Stats
	mallocs  float64 // heap objects allocated during the solve
	bytes    float64 // heap bytes allocated during the solve
	gcCycles float64
	gcPause  float64 // milliseconds
	broken   float64 // results no serial order explains (runResult.unserializable)
	ok       bool
}

// rep sets up a fresh instance and solves it once.
func (r *runner) rep(sc scenario, variant, what string, workers int) sample {
	runtime.GC()
	t0 := time.Now()
	inst, err := sc.setup(variant)
	s := sample{setup: time.Since(t0).Seconds()}
	if err != nil {
		r.count(what, err)
		return s
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := inst.run(workers)
	runtime.ReadMemStats(&m1)
	s.wall, s.stats, s.broken = res.wall.Seconds(), res.stats, float64(res.unserializable)
	s.mallocs = float64(m1.Mallocs - m0.Mallocs)
	s.bytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	s.gcCycles = float64(m1.NumGC - m0.NumGC)
	s.gcPause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	s.ok = r.count(what, res.err)
	return s
}

// mode repeats one (variant, workers) combination and returns the timed
// samples that verified, with the warm-up separately.
func (r *runner) mode(sc scenario, variant, what string, workers int, share float64, least int) (timed []sample, warm sample) {
	r.repeat(share, least, func(isWarm bool) {
		s := r.rep(sc, variant, what, workers)
		switch {
		case isWarm:
			warm = s
		case s.ok:
			timed = append(timed, s)
		}
	})
	return timed, warm
}

// observed runs fn with the latency histograms, the flight recorder and
// the event trace switched on.
func observed(fn func()) {
	telemetry.EnableLatency()
	telemetry.EnableFlight(1 << 10)
	telemetry.EnableTrace(1<<12, 1)
	defer func() {
		telemetry.DisableTrace()
		telemetry.DisableFlight()
		telemetry.DisableLatency()
	}()
	fn()
}

// normalise turns a solve's wall time into seconds per RefItems items.
// items is the input's amount of work: what a 1-worker run commits on
// it. Inputs made from different seeds differ in work by a factor of
// up to five (GENRMF), but hardly in cost per item, so the normalised
// time compares across seeds and the raw one does not.
func (r *runner) normalise(wall, items float64) float64 {
	if items == 0 {
		return 0
	}
	return wall * float64(r.cfg.RefItems) / items
}

func pick(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func perCommit(f func(sample) float64) func(sample) float64 {
	return func(s sample) float64 { return f(s) / float64(s.stats.Committed) }
}

// profileSeed generates every ParaMeter input, whatever -seed says. The
// profile is an exact count of the detector's verdicts on one reference
// input: it repeats on every run, so any change in it is a change in the
// program (choosing-metrics §8), and a 2% bound means something. Inputs
// from different seeds differ in parallelism by half (GENRMF 5×5×5:
// 2.0 to 4.7), which would bury that.
const profileSeed = 1

// profile builds the workload at profile scale and schedules it in
// ParaMeter rounds.
func (r *runner) profile(variant string) (parameter.Result, float64) {
	inst, err := apps[r.cfg.App].build(r.profSz, profileSeed).setup(variant)
	if err != nil {
		r.count("profile "+variant, err)
		return parameter.Result{}, 0
	}
	t0 := time.Now()
	res, err := inst.profile()
	r.count("profile "+variant, err)
	return res, time.Since(t0).Seconds()
}

// endToEnd measures what BENCHMARK.json bounds, with tracing and every
// recorder off except in the _obs mode.
func (r *runner) endToEnd() *results {
	res := newResults()
	sc := r.scenario(r.sz)
	det := r.cfg.Detector

	prof, _ := r.profile(det)
	p1, _ := r.mode(sc, det, "p1", 1, e2eShareP1, r.cfg.Reps.P1)
	var obs []sample
	observed(func() { obs, _ = r.mode(sc, det, "p1_obs", 1, e2eShareObs, r.cfg.Reps.Obs) })

	norm := func(s sample) float64 { return r.normalise(s.wall, float64(s.stats.Committed)) }
	setup := func(s sample) float64 { return s.setup }
	res.add("setup_s", append(pick(p1, setup), pick(obs, setup)...)...)
	res.add("solve_s_p1", pick(p1, norm)...)
	res.add("solve_s_p1_obs", pick(obs, norm)...)
	res.add("parallelism_a", prof.AvgParallelism)
	res.add("allocs_per_commit", pick(p1, perCommit(func(s sample) float64 { return s.mallocs }))...)
	res.add("bytes_per_commit", pick(p1, perCommit(func(s sample) float64 { return s.bytes }))...)
	return res
}

// counters sums what the detectors registered since mark have counted.
type counters struct {
	telemetry.DetectorSnapshot
	acquires, waits uint64
	kinds           map[string]bool
}

func registryMark() int { return len(telemetry.Default.Snapshot().Detectors) }

func countersSince(mark int) counters {
	c := counters{kinds: map[string]bool{}}
	for _, d := range telemetry.Default.Snapshot().Detectors[mark:] {
		c.kinds[d.Kind] = true
		c.Invocations += d.Invocations
		c.Checks += d.Checks
		c.Conflicts += d.Conflicts
		c.Rollbacks += d.Rollbacks
		c.LogEntries += d.LogEntries
		c.Probes += d.Probes
		c.Collisions += d.Collisions
		c.FallbackScans += d.FallbackScans
		c.FastAdmits += d.FastAdmits
		c.FilterHits += d.FilterHits
		c.OptRetries += d.OptRetries
		c.CascadeFallbacks += d.CascadeFallbacks
		c.BatchesWhole += d.BatchesWhole
		c.BatchesSplit += d.BatchesSplit
		c.BatchesSerial += d.BatchesSerial
		c.ShardLocal += d.ShardLocal
		c.ShardCross += d.ShardCross
		if d.ActiveHighWater > c.ActiveHighWater {
			c.ActiveHighWater = d.ActiveHighWater
		}
		if d.JournalHighWater > c.JournalHighWater {
			c.JournalHighWater = d.JournalHighWater
		}
		for _, m := range d.Modes {
			c.acquires += m.Acquired
			c.waits += m.Waits
		}
	}
	return c
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// layers is the traced pass: the same workload, measured layer by layer
// from outside — floor loops, engine.Stats, telemetry snapshot deltas
// and the benchmark's own spans.
func (r *runner) layers() *results {
	res := newResults()
	sc := r.scenario(r.sz)
	det := r.cfg.Detector
	seconds := func(s sample) float64 { return s.wall }

	// The 1-worker warm-up doubles as the counted run: the registry is
	// still short, and every count below is exact for one seed.
	var c counters
	var counted sample
	var p1 []sample
	r.repeat(layerShareP1, r.cfg.Reps.P1, func(warm bool) {
		if warm {
			mark := registryMark()
			counted = r.rep(sc, det, "p1", 1)
			c = countersSince(mark)
		} else if s := r.rep(sc, det, "p1", 1); s.ok {
			p1 = append(p1, s)
		}
	})
	items := float64(counted.stats.Committed)
	if !counted.ok || len(p1) == 0 {
		return res // the failure is booked; there is nothing sound to derive from
	}
	p1Wall := medianOf(pick(p1, seconds))

	seq := make([]float64, max(r.cfg.Reps.Seq, 1))
	for i := range seq {
		seq[i] = sc.sequential().Seconds()
	}
	seqS := medianOf(seq)

	r.floors(res)
	res.add("engine.commits_p1", items)
	// solve_s_p1 again, from this run, to set the ratios below against.
	res.add("engine.solve_s_p1", pick(p1, func(s sample) float64 { return r.normalise(s.wall, items) })...)

	p2, _ := r.mode(sc, det, "p2", 2, layerShareP2, r.cfg.Reps.P2)
	res.add("engine.solve_s_p2", pick(p2, func(s sample) float64 { return r.normalise(s.wall, items) })...)
	res.add("engine.commits_p2", pick(p2, func(s sample) float64 { return float64(s.stats.Committed) })...)
	res.add("engine.aborts_p2", pick(p2, func(s sample) float64 { return float64(s.stats.Aborts) })...)
	res.add("engine.abort_ratio_p2", pick(p2, func(s sample) float64 { return s.stats.AbortRatio() })...)
	res.add("engine.busy_share_p2", pick(p2, func(s sample) float64 {
		return float64(s.stats.Busy) / (2 * float64(s.stats.Elapsed))
	})...)
	res.add("engine.maxed_backoff_p2", pick(p2, func(s sample) float64 { return float64(s.stats.MaxedBackoffRetries) })...)
	if len(p2) > 0 {
		res.add("engine.speedup_p2", p1Wall/medianOf(pick(p2, seconds)))
	} else {
		res.add("engine.speedup_p2")
	}
	var abortCost []float64 // idle microseconds per abort
	for _, s := range p2 {
		if s.stats.Aborts > 0 {
			idle := 2*s.stats.Elapsed - s.stats.Busy
			abortCost = append(abortCost, float64(idle.Microseconds())/float64(s.stats.Aborts))
		}
	}
	if len(abortCost) > 0 {
		res.add("engine.abort_cost_us_p2", abortCost...)
	}
	if broken := pick(p2, func(s sample) float64 { return s.broken }); r.cfg.App == "set-churn" {
		res.add("detector.unserializable_keys_p2", broken...)
		if res.value("detector.unserializable_keys_p2") > 0 {
			r.warn("2-worker runs left keys whose membership contradicts the committed return values (README, finding 4)")
		}
	}
	r.window(res, sc, det)

	perItem := func(n uint64) float64 { return float64(n) / items }
	res.add("detector.invocations_per_commit", perItem(c.Invocations))
	res.add("detector.checks_per_commit", perItem(c.Checks))
	res.add("detector.active_high_water", float64(c.ActiveHighWater))
	res.add("abslock.acquires_per_commit", perItem(c.acquires))
	res.add("abslock.waits_per_commit", perItem(c.waits))
	res.add("gatekeeper.log_entries_per_commit", perItem(c.LogEntries))
	res.add("gatekeeper.probes_per_commit", perItem(c.Probes))
	res.add("gatekeeper.collisions_per_commit", perItem(c.Collisions))
	res.add("gatekeeper.fallback_scans", float64(c.FallbackScans))
	res.add("gatekeeper.rollbacks_per_commit", perItem(c.Rollbacks))
	res.add("gatekeeper.journal_high_water", float64(c.JournalHighWater))
	res.add("cascade.fast_admit_share", share(c.FastAdmits, c.Invocations))
	res.add("cascade.filter_hit_share", share(c.FilterHits, c.Invocations))
	res.add("cascade.opt_retry_share", share(c.OptRetries, c.Invocations))
	res.add("cascade.fallback_share", share(c.CascadeFallbacks, c.Invocations))
	batches := c.BatchesWhole + c.BatchesSplit + c.BatchesSerial
	res.add("batch.whole_share", share(c.BatchesWhole, batches))
	res.add("batch.split_share", share(c.BatchesSplit, batches))
	res.add("batch.serialized_share", share(c.BatchesSerial, batches))

	res.add("apps.seq_s", seq...)
	// flowgraph guards each call with Manager.PreAcquire, which counts
	// the locks it takes but not the invocation.
	calls := perItem(max(c.Invocations, c.acquires))
	res.add("adt.calls_per_commit", calls)
	r.tracedPass(res, sc, det, p1Wall/items, seqS, calls)
	r.observedPass(res, sc, det, p1Wall/items)

	prof, profS := r.profile(det)
	res.add("parameter.work", float64(prof.Work))
	res.add("parameter.critical_path", float64(prof.CriticalPath))
	res.add("parameter.conflicts", float64(prof.Conflicts))
	res.add("parameter.profile_s", profS)
	// §5: T·o/min(a, p), relative to the sequential time T = 1.
	o := p1Wall / seqS
	predicted := func(p float64) float64 { return o / math.Max(1, math.Min(prof.AvgParallelism, p)) }
	res.add("model.o", o)
	res.add("model.t_p8", predicted(8))
	res.add("model.t_p64", predicted(64))

	r.siblings(res, sc, counted.stats.Aborts)

	res.add("mem.gc_cycles_p1", pick(p1, func(s sample) float64 { return s.gcCycles })...)
	res.add("mem.gc_pause_ms_p1", pick(p1, func(s sample) float64 { return s.gcPause })...)
	return res
}

// floors times the engine with nothing to do: the bare transaction
// lifecycle, RunItems with an empty body, and RunItemsBatched with
// nothing but the group commit.
func (r *runner) floors(res *results) {
	const n, rounds = 100_000, 5
	items := make([]int, n)
	perOp := func(f func()) []float64 {
		out := make([]float64, rounds)
		for i := range out {
			t0 := time.Now()
			f()
			out[i] = float64(time.Since(t0).Nanoseconds()) / n
		}
		return out
	}
	tx := perOp(func() {
		for i := 0; i < n; i++ {
			tx := engine.GetTx()
			tx.Commit()
			engine.PutTx(tx)
		}
	})
	run := perOp(func() {
		_, err := engine.RunItems(items, engine.Options{Workers: 1},
			func(*engine.Tx, int, *engine.Worklist[int]) error { return nil })
		r.count("run floor", err)
	})
	batch := perOp(func() {
		_, err := engine.RunItemsBatched(items, engine.Options{Workers: 1, BatchSize: 32},
			func(txs []*engine.Tx, _ []int, _ *engine.Worklist[int], _ []error) error {
				engine.CommitBatch(txs)
				return nil
			})
		r.count("batch floor", err)
	})
	res.add("engine.tx_ns", tx...)
	res.add("engine.run_floor_ns", run...)
	res.add("engine.worklist_ns", medianOf(run)-medianOf(tx))
	res.add("engine.batch_floor_ns", batch...)
}

// windowed is an instance that can be driven from one thread with
// several transactions live at once.
type windowed interface{ windowRun(n int) runResult }

// window reports how many of the detector's verdicts are conflicts when
// four transactions overlap, on the workloads that can be driven so.
func (r *runner) window(res *results, sc scenario, det string) {
	mark := registryMark()
	inst, err := sc.setup(det)
	if err != nil {
		r.count("w4", err)
		return
	}
	w, ok := inst.(windowed)
	if !ok {
		return
	}
	out := w.windowRun(churnWindow)
	if r.count("w4", out.err) {
		res.add("engine.abort_ratio_w4", out.stats.AbortRatio())
		res.add("detector.conflicts_w4", float64(countersSince(mark).Conflicts))
	}
}

// tracedPass solves on the benchmark's serial driver with spans on and
// attributes the time to layers. p1PerItem is the untraced 1-worker
// time per item, seqS the plain sequential time of the whole input.
func (r *runner) tracedPass(res *results, sc scenario, det string, p1PerItem, seqS, callsPerCommit float64) {
	type pass struct {
		perItem map[string]float64 // mean nanoseconds per item, by span name
		bodyP99 float64
		budget  [5]float64 // engine, adt, admit, release, residual
		over    float64
		spans   float64
		guarded float64
	}
	var passes []pass
	var last *recorder
	spanCap := 1 << 16 // the warm-up pass finds out how many spans a pass records
	r.repeat(layerShareTraced, r.cfg.Reps.Traced, func(warm bool) {
		runtime.GC()
		inst, err := sc.setup(det)
		if err != nil {
			r.count("traced", err)
			return
		}
		rec := newRecorder(spanCap)
		out := inst.traced(rec)
		spanCap = len(rec.spans) + 1024
		if !r.count("traced", out.err) || warm {
			return
		}
		last = rec
		items := float64(out.stats.Committed)
		tot := rec.totals()
		ns := func(name string) float64 {
			if t := tot[name]; t != nil {
				return float64(t.total)
			}
			return 0
		}
		p := pass{perItem: map[string]float64{}, spans: float64(len(rec.spans))}
		for name, t := range tot {
			p.perItem[name] = float64(t.total) / items
			if strings.HasPrefix(name, "adt.") {
				p.perItem[name] = float64(t.total) / float64(t.count)
			}
		}
		body := tot["body"]
		// A body span covers one item, or one batch of them.
		p.bodyP99 = quantile(body.durs, 0.99) * float64(body.count) / items
		seqNS := seqS * 1e9
		total := ns("run")
		inBody := ns("body") - ns("push") + ns("seed") // guarded ADT calls and the app logic between them
		p.budget[0] = (ns("begin") + ns("recycle") + ns("push")) / total
		p.budget[1] = seqNS / total
		p.budget[2] = (inBody - seqNS) / total
		p.budget[3] = ns("commit") / total
		p.budget[4] = 1 - p.budget[0] - p.budget[1] - p.budget[2] - p.budget[3]
		p.over = out.wall.Seconds() / items / p1PerItem
		if callsPerCommit > 0 {
			p.guarded = inBody / items / callsPerCommit
		}
		passes = append(passes, p)
	})
	if len(passes) == 0 {
		return
	}
	across := func(f func(pass) float64) []float64 {
		out := make([]float64, len(passes))
		for i, p := range passes {
			out[i] = f(p)
		}
		return out
	}
	res.add("adt.guarded_call_ns", across(func(p pass) float64 { return p.guarded })...)
	res.add("span.body_ns", across(func(p pass) float64 { return p.perItem["body"] })...)
	res.add("span.body_p99_ns", across(func(p pass) float64 { return p.bodyP99 })...)
	var names []string
	for name := range passes[0].perItem {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == "begin" || name == "commit" || name == "recycle" || name == "push" || strings.HasPrefix(name, "adt.") {
			res.add("span."+name+"_ns", across(func(p pass) float64 { return p.perItem[name] })...)
		}
	}
	for i, name := range []string{"engine", "adt", "admit", "release", "residual"} {
		res.add("budget."+name+"_share", across(func(p pass) float64 { return p.budget[i] })...)
	}
	res.add("trace.overhead_share", across(func(p pass) float64 { return p.over })...)
	res.add("trace.spans", across(func(p pass) float64 { return p.spans })...)
	if residual := res.value("budget.residual_share"); residual > 0.10 {
		r.warn("budget.residual_share is %.2f: the layers account for less than 90%% of the traced time", residual)
	}
	if r.spans != "" {
		if err := last.write(r.spans); err != nil {
			r.warn("writing spans: %v", err)
		}
	}
}

func (r *runner) warn(format string, args ...any) {
	r.problems = append(r.problems, "warning: "+r.cfg.Name+": "+fmt.Sprintf(format, args...))
}

// observedPass repeats the 1-worker run with every recorder on and reads
// the recorders.
func (r *runner) observedPass(res *results, sc scenario, det string, p1PerItem float64) {
	observed(func() {
		var commits uint64
		var obs []sample
		r.repeat(layerShareObs, r.cfg.Reps.Obs, func(warm bool) {
			s := r.rep(sc, det, "p1_obs", 1)
			commits += s.stats.Committed
			if s.ok && !warm {
				obs = append(obs, s)
			}
		})
		res.add("telemetry.obs_tax", pick(obs, func(s sample) float64 {
			return s.wall / float64(s.stats.Committed) / p1PerItem
		})...)
		lat := telemetry.SnapshotLatency()
		var marks uint64
		for _, st := range lat.Stages {
			marks += st.Count
		}
		res.add("telemetry.marks_per_commit", share(marks, commits))
		res.add("telemetry.flight_dropped", float64(telemetry.FlightDropped()))
		for _, st := range lat.Stages {
			res.add("telemetry.stage."+st.Stage+".p50_ns", st.P50NS)
			res.add("telemetry.stage."+st.Stage+".p99_ns", st.P99NS)
		}
	})
}

// siblings runs the same input under the neighbouring lattice points the
// workload names: 1 worker, fewer repetitions, plus their parallelism.
func (r *runner) siblings(res *results, sc scenario, p1Aborts uint64) {
	for _, v := range r.cfg.Lattice {
		mark := registryMark()
		timed, warm := r.mode(sc, v, "lattice "+v, 1, layerShareLattice/float64(len(r.cfg.Lattice)), r.cfg.Reps.Lattice)
		c := countersSince(mark)
		res.add("lattice."+v+".solve_s_p1", pick(timed, func(s sample) float64 {
			return r.normalise(s.wall, float64(s.stats.Committed))
		})...)
		prof, _ := r.profile(v)
		res.add("lattice."+v+".a", prof.AvgParallelism)
		if c.kinds["cascade-sharded"] {
			res.add("shard.cross_share", share(c.ShardCross, c.ShardLocal+c.ShardCross))
		}
		// Two precise detectors of one specification must refuse the same
		// invocations: on set-churn the forward gatekeeper's window run
		// aborts exactly as often as the cascade's.
		if r.cfg.App == "set-churn" && v == "forward" && warm.ok && warm.stats.Aborts != p1Aborts {
			r.count("verdict agreement", fmt.Errorf("forward gatekeeper aborted %d times, cascade %d", warm.stats.Aborts, p1Aborts))
		}
	}
}
