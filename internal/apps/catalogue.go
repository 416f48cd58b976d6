// Package apps is the catalogue of the paper's application experiments
// (§5): preflow-push under {part, ex, ml}, Borůvka under {uf-ml, uf-gk}
// and agglomerative clustering under {kd-ml, kd-gk} — the one matrix
// behind Table 1, figures 10–12 and the T·o/min(a,p) model. Every
// consumer (internal/bench's tables and figures, cmd/commlat's trace and
// flightrec, the root bench_test.go) is a loop over Catalogue; the
// solvers themselves live in the subpackages.
package apps

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"commlat/internal/adt/flowgraph"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/apps/boruvka"
	"commlat/internal/apps/cluster"
	"commlat/internal/apps/preflow"
	"commlat/internal/engine"
	"commlat/internal/parameter"
	"commlat/internal/workload"
)

// Sizes sizes every input of the catalogue. The paper's sizes (GENRMF
// challenge input, 1000×1000 mesh, 100k points in Table 1 and 500k in
// figure 11) are a matter of cmd/commlat flags.
type Sizes struct {
	RMFa, RMFb int   // GENRMF frame side and frame count (preflow-push)
	Mesh       int   // Borůvka's mesh is Mesh × Mesh
	Points     int   // clustering input size
	Parts      int   // preflow partition count under part (paper: 32)
	Seed       int64 // generator seed of every input
}

// Solve is the outcome of one guarded run.
type Solve struct {
	Stats engine.Stats
	// Wall times the app's Run call alone — worklist seeding and index
	// bulk load included, construction of the input and of the guarded
	// structure excluded — which is what Table 1's overhead and the
	// figures compare against Sequential's time.
	Wall time.Duration
	// Answer is what the run computed, spelled the way Sequential spells
	// it, so that a right run's Answer equals Sequential's.
	Answer string
}

// Variant is one lattice point of an application: a conflict-detection
// scheme guarding the app's ADT. Each call of Run and of Profile builds
// a fresh guarded structure (a solve consumes its input and its
// detector).
type Variant struct {
	Name string // Table 1's name
	// Ablation marks a variant the paper does not report: it is reachable
	// by name (trace, flightrec) and left out of the tables and figures.
	Ablation bool
	Run      func(engine.Options) (Solve, error)
	// Profile schedules the computation in ParaMeter rounds (Table 1's
	// critical path and parallelism columns).
	Profile func() (parameter.Result, error)
}

// App is one application with its variants in Table 1's order, lowest
// lattice point first.
type App struct {
	Key    string // command-line name
	Title  string // Table 1's name
	Figure int    // the paper's figure that sweeps this app over threads
	Input  string // the generated input, for run summaries
	// Sequential runs the plain, unguarded algorithm on a fresh input and
	// returns its answer and the time of the solve alone: Table 1's T.
	Sequential func() (answer string, wall time.Duration)
	Variants   []Variant
}

// Reported lists the variants the paper reports: the rows of Table 1 and
// the series of the app's figure.
func (a App) Reported() []Variant {
	var out []Variant
	for _, v := range a.Variants {
		if !v.Ablation {
			out = append(out, v)
		}
	}
	return out
}

// Variant returns the variant called name; the empty name selects the
// app's highest reported lattice point.
func (a App) Variant(name string) (Variant, error) {
	var names []string
	for _, v := range a.Variants {
		if v.Name == name {
			return v, nil
		}
		names = append(names, v.Name)
	}
	if reported := a.Reported(); name == "" && len(reported) > 0 {
		return reported[len(reported)-1], nil
	}
	return Variant{}, fmt.Errorf("%s has no variant %q (%s)", a.Key, name, strings.Join(names, "|"))
}

// Lookup returns the app whose Key or Title is name.
func Lookup(cat []App, name string) (App, error) {
	var keys []string
	for _, a := range cat {
		if a.Key == name || a.Title == name {
			return a, nil
		}
		keys = append(keys, a.Key)
	}
	return App{}, fmt.Errorf("unknown app %q (%s)", name, strings.Join(keys, "|"))
}

// Catalogue lists the paper's applications over inputs of the given
// sizes. Inputs are generated on first use, so a consumer that runs one
// app does not pay for the others' inputs.
func Catalogue(sz Sizes) []App {
	return []App{preflowApp(sz), boruvkaApp(sz), clusterApp(sz)}
}

// preflowApp is figure 10's matrix. The paper's shape: run time is
// inversely correlated with lattice height — lower-precision schemes
// win because their parallelism still exceeds the machine's cores while
// their per-operation overhead is lower.
func preflowApp(sz Sizes) App {
	// A solve mutates its network, so every run generates its own.
	newNet := func() *flowgraph.Net { return workload.GenRMF(sz.RMFa, sz.RMFb, 1, 1000, sz.Seed) }
	answer := func(flow int64) string { return fmt.Sprintf("max flow %d", flow) }
	variant := func(name string, guard func(*flowgraph.Net) *flowgraph.Graph) Variant {
		return Variant{
			Name: name,
			Run: func(opts engine.Options) (Solve, error) {
				g := guard(newNet())
				start := time.Now()
				flow, stats, err := preflow.Run(g, opts)
				return Solve{Stats: stats, Wall: time.Since(start), Answer: answer(flow)}, err
			},
			Profile: func() (parameter.Result, error) {
				p, err := preflow.Profile(guard(newNet()))
				return p.Result, err
			},
		}
	}
	return App{
		Key: "preflow", Title: "Preflow-push", Figure: 10,
		Input: fmt.Sprintf("genrmf %dx%d", sz.RMFa, sz.RMFb),
		Sequential: func() (string, time.Duration) {
			net := newNet()
			start := time.Now()
			flow := preflow.Sequential(net)
			return answer(flow), time.Since(start)
		},
		Variants: []Variant{
			variant("part", func(net *flowgraph.Net) *flowgraph.Graph { return flowgraph.NewPartitioned(net, sz.Parts) }),
			variant("ex", flowgraph.NewExclusive),
			variant("ml", flowgraph.NewRW),
		},
	}
}

// boruvkaApp is figure 12's matrix: the concrete general gatekeeper
// (uf-gk) against the memory-level baseline (uf-ml). The paper's shape:
// despite general gatekeeping's complexity, it has lower overhead than
// tracking every read and write of path compression, and scales better.
// uf-generic is the spec-interpreting general gatekeeper, an ablation of
// uf-gk (same conditions, different machinery).
func boruvkaApp(sz Sizes) App {
	mesh := sync.OnceValues(func() (int, []workload.Edge) { return workload.Mesh(sz.Mesh, sz.Mesh, sz.Seed) })
	answer := func(weight float64, edges int) string {
		return fmt.Sprintf("MST weight %.0f over %d edges", weight, edges)
	}
	variant := func(name string, ablation bool, guard func(nodes int) unionfind.Sets) Variant {
		return Variant{
			Name: name, Ablation: ablation,
			Run: func(opts engine.Options) (Solve, error) {
				nodes, edges := mesh()
				uf := guard(nodes)
				start := time.Now()
				res, err := boruvka.Run(uf, nodes, edges, opts)
				return Solve{Stats: res.Stats, Wall: time.Since(start), Answer: answer(res.Weight, res.Edges)}, err
			},
			Profile: func() (parameter.Result, error) {
				nodes, edges := mesh()
				p, err := boruvka.Profile(guard(nodes), nodes, edges)
				return p.Result, err
			},
		}
	}
	return App{
		Key: "boruvka", Title: "Boruvka", Figure: 12,
		Input: fmt.Sprintf("mesh %dx%d", sz.Mesh, sz.Mesh),
		Sequential: func() (string, time.Duration) {
			nodes, edges := mesh()
			start := time.Now()
			weight, count := boruvka.Sequential(nodes, edges)
			return answer(weight, count), time.Since(start)
		},
		Variants: []Variant{
			variant("uf-ml", false, func(n int) unionfind.Sets { return unionfind.NewML(n) }),
			variant("uf-gk", false, func(n int) unionfind.Sets { return unionfind.NewGK(n) }),
			variant("uf-generic", true, func(n int) unionfind.Sets { return unionfind.NewGeneric(n) }),
		},
	}
}

// clusterApp is figure 11's matrix: the forward gatekeeper (kd-gk)
// against the memory-level baseline (kd-ml). The paper's shape: the
// gatekeeper scales while the baseline does not, despite the
// gatekeeper's higher precision.
func clusterApp(sz Sizes) App {
	points := sync.OnceValue(func() []kdtree.Point { return workload.RandomPoints(sz.Points, 1000, sz.Seed) })
	answer := func(merges int) string { return fmt.Sprintf("%d merges", merges) }
	variant := func(name string, guard func() kdtree.Index) Variant {
		return Variant{
			Name: name,
			Run: func(opts engine.Options) (Solve, error) {
				pts, idx := points(), guard()
				start := time.Now()
				_, res, err := cluster.Run(idx, pts, opts)
				return Solve{Stats: res.Stats, Wall: time.Since(start), Answer: answer(res.Merges)}, err
			},
			Profile: func() (parameter.Result, error) {
				p, err := cluster.Profile(guard(), points())
				return p.Result, err
			},
		}
	}
	return App{
		Key: "cluster", Title: "Clustering", Figure: 11,
		Input: fmt.Sprintf("%d points", sz.Points),
		Sequential: func() (string, time.Duration) {
			pts := points()
			start := time.Now()
			d := cluster.Sequential(pts)
			return answer(len(d.Merges())), time.Since(start)
		},
		Variants: []Variant{
			variant("kd-ml", func() kdtree.Index { return kdtree.NewML() }),
			variant("kd-gk", func() kdtree.Index { return kdtree.NewGK() }),
		},
	}
}
