package main

import (
	"fmt"
	"sort"
	"strings"
)

// metric declares one number the benchmark prints. The names are the
// repository's yardstick: later changes cite them verbatim, so a name is
// never reused for a different quantity.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Contract marks the per-layer metrics every workload reports; they
	// are the per_layer list of BENCHMARK.json. The rest are printed only
	// by the workloads whose layer they touch.
	Contract bool
	// Count marks exact counts: one seed gives the same value on every run.
	Count bool
	// Modelled marks numbers that come from the §5 model or the ParaMeter
	// round scheduler, not from a clock on this machine.
	Modelled bool
}

// endToEnd is what a user of the system sees, per workload. Times are
// normalised to the workload's reference amount of work (see README,
// "Normalisation"), so runs with different seeds are comparable.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "solve_s_p1", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "solve_s_p1_obs", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "parallelism_a", Unit: "items/round", Better: "higher", Bound: 0.02, Count: true, Modelled: true},
	{Name: "allocs_per_commit", Unit: "allocs", Better: "lower", Bound: 0.10},
	{Name: "bytes_per_commit", Unit: "B", Better: "lower", Bound: 0.15},
}

// perLayer lists every single-layer metric. A name with a * stands for a
// family: lattice siblings, telemetry stages and wrapped ADT methods are
// named by the workload that has them.
var perLayer = []metric{
	// engine: floors from empty-body loops, counters from engine.Stats.
	{Name: "engine.tx_ns", Unit: "ns", Better: "lower", Contract: true},
	{Name: "engine.run_floor_ns", Unit: "ns", Better: "lower", Contract: true},
	{Name: "engine.worklist_ns", Unit: "ns", Better: "lower", Contract: true},
	{Name: "engine.batch_floor_ns", Unit: "ns", Better: "lower", Contract: true},
	{Name: "engine.commits_p1", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "engine.solve_s_p1", Unit: "s", Better: "lower", Contract: true},
	{Name: "engine.solve_s_p2", Unit: "s", Better: "lower", Contract: true},
	{Name: "engine.commits_p2", Unit: "count", Better: "lower", Contract: true},
	{Name: "engine.aborts_p2", Unit: "count", Better: "lower", Contract: true},
	{Name: "engine.abort_ratio_p2", Unit: "fraction", Better: "lower", Contract: true},
	{Name: "engine.busy_share_p2", Unit: "fraction", Better: "higher", Contract: true},
	{Name: "engine.maxed_backoff_p2", Unit: "count", Better: "lower", Contract: true},
	{Name: "engine.speedup_p2", Unit: "x", Better: "higher", Contract: true},
	{Name: "engine.abort_cost_us_p2", Unit: "us", Better: "lower"},
	{Name: "engine.abort_ratio_w4", Unit: "fraction", Better: "lower", Count: true},

	// detectors: exact per-commit counts of one 1-worker run, from
	// telemetry.Default.Snapshot() deltas.
	{Name: "detector.invocations_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "detector.checks_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "detector.active_high_water", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "detector.conflicts_w4", Unit: "count", Better: "lower", Count: true},
	{Name: "detector.unserializable_keys_p2", Unit: "count", Better: "lower"},
	{Name: "abslock.acquires_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "abslock.waits_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "gatekeeper.log_entries_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "gatekeeper.probes_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "gatekeeper.collisions_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "gatekeeper.fallback_scans", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "gatekeeper.rollbacks_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "gatekeeper.journal_high_water", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "cascade.fast_admit_share", Unit: "fraction", Better: "higher", Contract: true, Count: true},
	{Name: "cascade.filter_hit_share", Unit: "fraction", Better: "lower", Contract: true, Count: true},
	{Name: "cascade.opt_retry_share", Unit: "fraction", Better: "lower", Contract: true},
	{Name: "cascade.fallback_share", Unit: "fraction", Better: "lower", Contract: true, Count: true},
	{Name: "batch.whole_share", Unit: "fraction", Better: "higher", Contract: true, Count: true},
	{Name: "batch.split_share", Unit: "fraction", Better: "lower", Contract: true, Count: true},
	{Name: "batch.serialized_share", Unit: "fraction", Better: "lower", Contract: true, Count: true},
	{Name: "shard.cross_share", Unit: "fraction", Better: "lower", Count: true},

	// apps / adt.
	{Name: "apps.seq_s", Unit: "s", Better: "lower", Contract: true},
	{Name: "adt.calls_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "adt.guarded_call_ns", Unit: "ns", Better: "lower", Contract: true},

	// traced pass: spans recorded by the benchmark's own serial driver.
	{Name: "span.body_ns", Unit: "ns", Better: "lower", Contract: true},
	{Name: "span.body_p99_ns", Unit: "ns", Better: "lower", Contract: true},
	{Name: "span.begin_ns", Unit: "ns", Better: "lower"},
	{Name: "span.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "span.recycle_ns", Unit: "ns", Better: "lower"},
	{Name: "span.push_ns", Unit: "ns", Better: "lower"},
	{Name: "span.adt.*_ns", Unit: "ns", Better: "lower"},
	{Name: "budget.engine_share", Unit: "fraction", Better: "lower", Contract: true},
	{Name: "budget.adt_share", Unit: "fraction", Better: "higher", Contract: true},
	{Name: "budget.admit_share", Unit: "fraction", Better: "lower", Contract: true},
	{Name: "budget.release_share", Unit: "fraction", Better: "lower", Contract: true},
	{Name: "budget.residual_share", Unit: "fraction", Better: "lower", Contract: true},
	{Name: "trace.overhead_share", Unit: "x", Better: "lower", Contract: true},
	{Name: "trace.spans", Unit: "count", Better: "lower", Contract: true},

	// telemetry: the run with latency histograms, flight recorder and
	// event trace switched on.
	{Name: "telemetry.obs_tax", Unit: "x", Better: "lower", Contract: true},
	{Name: "telemetry.marks_per_commit", Unit: "count", Better: "lower", Contract: true, Count: true},
	{Name: "telemetry.flight_dropped", Unit: "count", Better: "lower", Contract: true},
	{Name: "telemetry.stage.*.p50_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.stage.*.p99_ns", Unit: "ns", Better: "lower"},

	// parameter / model: modelled, not timed on this machine's cores.
	{Name: "parameter.work", Unit: "count", Better: "lower", Contract: true, Count: true, Modelled: true},
	{Name: "parameter.critical_path", Unit: "rounds", Better: "lower", Contract: true, Count: true, Modelled: true},
	{Name: "parameter.conflicts", Unit: "count", Better: "lower", Contract: true, Count: true, Modelled: true},
	{Name: "parameter.profile_s", Unit: "s", Better: "lower", Contract: true},
	{Name: "model.o", Unit: "x", Better: "lower", Contract: true, Modelled: true},
	{Name: "model.t_p8", Unit: "x", Better: "lower", Contract: true, Modelled: true},
	{Name: "model.t_p64", Unit: "x", Better: "lower", Contract: true, Modelled: true},

	// lattice siblings: the same input under a neighbouring lattice point.
	{Name: "lattice.*.solve_s_p1", Unit: "s", Better: "lower"},
	{Name: "lattice.*.a", Unit: "items/round", Better: "higher", Count: true, Modelled: true},

	{Name: "mem.gc_cycles_p1", Unit: "count", Better: "lower", Contract: true},
	{Name: "mem.gc_pause_ms_p1", Unit: "ms", Better: "lower"},
}

// contractLayers returns the per-layer metrics every workload reports:
// the per_layer list of BENCHMARK.json.
func contractLayers() []metric {
	var out []metric
	for _, m := range perLayer {
		if m.Contract {
			out = append(out, m)
		}
	}
	return out
}

// declared finds the declaration a printed name belongs to.
func declared(name string) (metric, bool) {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
			if pre, suf, ok := strings.Cut(m.Name, "*"); ok && len(name) > len(pre)+len(suf) &&
				strings.HasPrefix(name, pre) && strings.HasSuffix(name, suf) {
				return m, true
			}
		}
	}
	return metric{}, false
}

// stat is one reported number: the median of its samples with their
// range. A count has one sample.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// results collects the metrics of one workload run, in print order.
type results struct {
	order []string
	byKey map[string]stat
}

func newResults() *results { return &results{byKey: map[string]stat{}} }

// add records name as the median of samples. An undeclared name is a bug
// in the benchmark, so it panics.
func (r *results) add(name string, samples ...float64) {
	m, ok := declared(name)
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if _, dup := r.byKey[name]; dup {
		panic("benchmark: metric reported twice: " + name)
	}
	if len(samples) == 0 {
		samples = []float64{0}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	r.order = append(r.order, name)
	r.byKey[name] = stat{Value: median(s), Unit: m.Unit, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func (r *results) value(name string) float64 { return r.byKey[name].Value }

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return median(s)
}

// quantile returns the q-quantile of samples by nearest rank.
func quantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// table renders the results, one metric per line.
func (r *results) table() string {
	var b strings.Builder
	for _, name := range r.order {
		s := r.byKey[name]
		m, _ := declared(name)
		tag := ""
		if m.Modelled {
			tag = "  (modelled)"
		}
		fmt.Fprintf(&b, "  %-36s %14.6g %-12s min %-12.6g max %-12.6g n %d%s\n",
			name, s.Value, s.Unit, s.Min, s.Max, s.N, tag)
	}
	return b.String()
}
