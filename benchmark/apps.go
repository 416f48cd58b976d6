package main

import (
	"fmt"
	"math"
	"slices"
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

// scenario is one workload at one size and seed. It knows the right
// answer and builds a fresh instance for every repetition, because a
// solve consumes its input and its detector.
type scenario interface {
	// setup generates the input from the seed and builds the guarded ADT
	// under the named lattice point. It is what setup_s times.
	setup(variant string) (instance, error)
	// sequential times the plain, unguarded algorithm on a fresh input:
	// Table 1's T.
	sequential() time.Duration
}

// instance is a built input + ADT + detector, good for one of its calls.
type instance interface {
	// run solves through the app's public entry point, times the call
	// and then verifies the answer.
	run(workers int) runResult
	// profile schedules the computation in ParaMeter rounds.
	profile() (parameter.Result, error)
	// traced solves on the benchmark's own serial driver, recording a
	// span around each call into a layer, and verifies the answer.
	traced(rec *recorder) runResult
}

type runResult struct {
	stats engine.Stats
	wall  time.Duration
	err   error // engine error, wrong answer, or detector state left dirty
	// unserializable counts results no serial order explains, in the one
	// mode that reports them instead of failing (set-churn, 2 workers).
	unserializable int
}

// app binds an app key of workloads.json to its scenario constructor and
// the detector keys it understands.
type app struct {
	detectors []string
	build     func(sz sizes, seed int64) scenario
}

var apps = map[string]app{
	"preflow":     {[]string{"ml", "ex", "part"}, func(sz sizes, seed int64) scenario { return newPreflow(sz, seed) }},
	"boruvka":     {[]string{"uf-gk", "uf-ml"}, func(sz sizes, seed int64) scenario { return newBoruvka(sz, seed) }},
	"cluster":     {[]string{"kd-gk", "kd-ml"}, func(sz sizes, seed int64) scenario { return newCluster(sz, seed) }},
	"set-stream":  {setDetectors, func(sz sizes, seed int64) scenario { return newSet(setStream, sz, seed) }},
	"set-churn":   {setDetectors, func(sz sizes, seed int64) scenario { return newSet(setChurn, sz, seed) }},
	"set-batched": {[]string{"cascade", "sharded"}, func(sz sizes, seed int64) scenario { return newSet(setBatched, sz, seed) }},
}

// validate checks a workload entry's app and detector keys.
func (w *workloadCfg) validate() error {
	a, ok := apps[w.App]
	if !ok {
		return fmt.Errorf("unknown app %q", w.App)
	}
	for _, d := range append([]string{w.Detector}, w.Lattice...) {
		if !slices.Contains(a.detectors, d) {
			return fmt.Errorf("app %s has no detector %q", w.App, d)
		}
	}
	return nil
}

// tracedLoop is the benchmark-owned serial executor of the traced pass:
// it pops from its own queue and records a span around each call into a
// layer — engine.GetTx (begin), the app's exported step (body),
// tx.Commit (commit; release hooks run here), engine.PutTx (recycle)
// and the push callback (push).
func tracedLoop[T any](rec *recorder, queue []T, step func(tx *engine.Tx, item T, push func(T)) error) (engine.Stats, error) {
	var stats engine.Stats
	push := func(v T) {
		rec.begin(spPush, -1)
		queue = append(queue, v)
		rec.end()
	}
	for head := 0; head < len(queue); head++ {
		k := int64(head)
		rec.begin(spItem, k)
		rec.first(spBegin, k)
		tx := engine.GetTx()
		rec.then(spBody, k)
		err := step(tx, queue[head], push)
		if err != nil {
			tx.Abort()
			engine.PutTx(tx)
			rec.endAt(rec.end())
			return stats, fmt.Errorf("traced pass: item %d: %w", head, err)
		}
		rec.then(spCommit, k)
		tx.Commit()
		rec.then(spRecycle, k)
		engine.PutTx(tx)
		rec.endAt(rec.end())
		stats.Committed++
	}
	return stats, nil
}

// --- preflow-push ---------------------------------------------------------

// preflowScenario is a batch of sz.Nets GENRMF nets solved one after the
// other. GENRMF inputs differ a lot from seed to seed — 12k to 23k
// discharges at 5×5×5, the light ones 15% cheaper per discharge — and a
// batch averages that out, so runs with different seeds compare.
type preflowScenario struct {
	sz   sizes
	seed int64
	want []int64 // max flow of each net, by preflow.Sequential
}

func newPreflow(sz sizes, seed int64) *preflowScenario {
	s := &preflowScenario{sz: sz, seed: seed}
	for _, net := range s.nets() {
		s.want = append(s.want, preflow.Sequential(net))
	}
	return s
}

func (s *preflowScenario) nets() []*flowgraph.Net {
	k := max(s.sz.Nets, 1)
	nets := make([]*flowgraph.Net, k)
	for j := range nets {
		nets[j] = workload.GenRMF(s.sz.A, s.sz.B, 1, 1000, s.seed*int64(k)+int64(j))
	}
	return nets
}

func (s *preflowScenario) sequential() time.Duration {
	nets := s.nets()
	t0 := time.Now()
	for _, net := range nets {
		preflow.Sequential(net)
	}
	return time.Since(t0)
}

func (s *preflowScenario) setup(variant string) (instance, error) {
	in := &preflowInstance{s: s}
	for _, net := range s.nets() {
		switch variant {
		case "ml":
			in.gs = append(in.gs, flowgraph.NewRW(net))
		case "ex":
			in.gs = append(in.gs, flowgraph.NewExclusive(net))
		case "part":
			in.gs = append(in.gs, flowgraph.NewPartitioned(net, s.sz.Parts))
		default:
			return nil, fmt.Errorf("preflow: unknown detector %q", variant)
		}
	}
	return in, nil
}

type preflowInstance struct {
	s  *preflowScenario
	gs []*flowgraph.Graph
}

func (s *preflowScenario) check(net int, flow int64, err error) error {
	if err == nil && flow != s.want[net] {
		err = fmt.Errorf("preflow: net %d: flow %d, sequential flow %d", net, flow, s.want[net])
	}
	return err
}

// addStats accumulates the statistics of the batch's solves.
func addStats(sum *engine.Stats, s engine.Stats) {
	sum.Committed += s.Committed
	sum.Aborts += s.Aborts
	sum.Elapsed += s.Elapsed
	sum.Busy += s.Busy
	sum.MaxedBackoffRetries += s.MaxedBackoffRetries
}

func (p *preflowInstance) run(workers int) runResult {
	var res runResult
	flows := make([]int64, len(p.gs))
	t0 := time.Now()
	for j, g := range p.gs {
		flow, stats, err := preflow.Run(g, engine.Options{Workers: workers})
		if err != nil {
			return runResult{err: err}
		}
		flows[j] = flow
		addStats(&res.stats, stats)
	}
	res.wall = time.Since(t0)
	for j, flow := range flows {
		if res.err == nil {
			res.err = p.s.check(j, flow, nil)
		}
	}
	return res
}

// profile schedules the batch's first net; the profile scale has one.
func (p *preflowInstance) profile() (parameter.Result, error) {
	res, err := preflow.Profile(p.gs[0])
	return res.Result, p.s.check(0, res.Flow, err)
}

func (p *preflowInstance) traced(rec *recorder) runResult {
	var res runResult
	t0 := time.Now()
	rec.begin(spRun, -1)
	for j, g := range p.gs {
		net := g.Net()
		// preflow.Run's prologue, from flowgraph.Net's public methods.
		src, sink := net.Source(), net.Sink()
		net.SetHeight(src, int64(net.Len()))
		var active []int64
		arcs := net.Arcs(src)
		for i := range arcs {
			if amt := arcs[i].Cap; amt > 0 {
				v := int64(arcs[i].To)
				net.AddExcess(src, amt)
				if err := net.Push(src, i, amt); err != nil {
					return runResult{err: err}
				}
				if v != sink {
					active = append(active, v)
				}
			}
		}
		stats, err := tracedLoop(rec, active, func(tx *engine.Tx, u int64, push func(int64)) error {
			_, err := preflow.Discharge(tx, g, u, push)
			return err
		})
		addStats(&res.stats, stats)
		if res.err == nil {
			res.err = p.s.check(j, net.Excess(sink), err)
		}
	}
	rec.end()
	res.wall = time.Since(t0)
	return res
}

// --- Borůvka ----------------------------------------------------------------

type boruvkaScenario struct {
	sz         sizes
	seed       int64
	wantWeight float64 // by boruvka.Kruskal
	wantEdges  int
}

func newBoruvka(sz sizes, seed int64) *boruvkaScenario {
	s := &boruvkaScenario{sz: sz, seed: seed}
	s.wantWeight, s.wantEdges = boruvka.Kruskal(s.mesh())
	return s
}

func (s *boruvkaScenario) mesh() (int, []workload.Edge) {
	return workload.Mesh(s.sz.Mesh, s.sz.Mesh, s.seed)
}

func (s *boruvkaScenario) sequential() time.Duration {
	nodes, edges := s.mesh()
	t0 := time.Now()
	boruvka.Sequential(nodes, edges)
	return time.Since(t0)
}

func (s *boruvkaScenario) setup(variant string) (instance, error) {
	in := &boruvkaInstance{s: s}
	in.nodes, in.edges = s.mesh()
	switch variant {
	case "uf-gk":
		in.uf = unionfind.NewGK(in.nodes)
	case "uf-ml":
		in.uf = unionfind.NewML(in.nodes)
	default:
		return nil, fmt.Errorf("boruvka: unknown detector %q", variant)
	}
	return in, nil
}

type boruvkaInstance struct {
	s     *boruvkaScenario
	nodes int
	edges []workload.Edge
	uf    unionfind.Sets
}

// check compares with Kruskal. The two sum the same weights in different
// orders, so the weights agree to rounding, not bit for bit.
func (b *boruvkaInstance) check(weight float64, edges int, err error) error {
	if err != nil {
		return err
	}
	if edges != b.s.wantEdges || math.Abs(weight-b.s.wantWeight) > 1e-9*b.s.wantWeight {
		return fmt.Errorf("boruvka: weight %v with %d edges, Kruskal %v with %d", weight, edges, b.s.wantWeight, b.s.wantEdges)
	}
	if gk, ok := b.uf.(*unionfind.GK); ok && gk.LiveWrites() != 0 {
		return fmt.Errorf("boruvka: gatekeeper journal holds %d writes after the run", gk.LiveWrites())
	}
	return nil
}

func (b *boruvkaInstance) run(workers int) runResult {
	t0 := time.Now()
	res, err := boruvka.Run(b.uf, b.nodes, b.edges, engine.Options{Workers: workers})
	return runResult{stats: res.Stats, wall: time.Since(t0), err: b.check(res.Weight, res.Edges, err)}
}

func (b *boruvkaInstance) profile() (parameter.Result, error) {
	res, err := boruvka.Profile(b.uf, b.nodes, b.edges)
	return res.Result, b.check(res.Weight, res.Edges, err)
}

// traced runs boruvka.Run itself with one worker, because the iteration
// body is not exported; the union-find wrapper supplies the spans.
func (b *boruvkaInstance) traced(rec *recorder) runResult {
	inner := b.uf
	ts := &tracedSets{Sets: inner, rec: rec}
	t0 := time.Now()
	rec.begin(spRun, -1)
	res, err := boruvka.Run(ts, b.nodes, b.edges, engine.Options{Workers: 1})
	ts.finish()
	rec.end()
	wall := time.Since(t0)
	return runResult{stats: res.Stats, wall: wall, err: b.check(res.Weight, res.Edges, err)}
}

// tracedSets wraps a union-find with a child span per guarded call. The
// calls of one transaction are grouped under a body span that runs from
// its first call to its last: the nearest the benchmark can get to the
// unexported step. What lies between two bodies — the rest of the step,
// commit, recycle, the worklist and the component-list locks — stays in
// the root span's self time.
type tracedSets struct {
	unionfind.Sets
	rec  *recorder
	tx   uint64 // transaction whose body span is open; 0 when none
	last int64  // end of the latest child span
	n    int64
}

func (t *tracedSets) enter(tx *engine.Tx) {
	if id := tx.ID(); id != t.tx {
		t.finish()
		t.tx = id
		t.rec.begin(spBody, t.n)
		t.n++
	}
}

func (t *tracedSets) finish() {
	if t.tx != 0 {
		t.rec.endAt(t.last)
		t.tx = 0
	}
}

func (t *tracedSets) Find(tx *engine.Tx, a int64) (int64, error) {
	t.enter(tx)
	t.rec.begin(adtFind, -1)
	r, err := t.Sets.Find(tx, a)
	t.last = t.rec.end()
	return r, err
}

func (t *tracedSets) Union(tx *engine.Tx, a, b int64) (bool, error) {
	t.enter(tx)
	t.rec.begin(adtUnion, -1)
	r, err := t.Sets.Union(tx, a, b)
	t.last = t.rec.end()
	return r, err
}

// --- agglomerative clustering ---------------------------------------------

type clusterScenario struct {
	sz   sizes
	seed int64
}

func newCluster(sz sizes, seed int64) *clusterScenario { return &clusterScenario{sz: sz, seed: seed} }

func (s *clusterScenario) points() []kdtree.Point {
	return workload.RandomPoints(s.sz.Points, 1000, s.seed)
}

func (s *clusterScenario) sequential() time.Duration {
	pts := s.points()
	t0 := time.Now()
	cluster.Sequential(pts)
	return time.Since(t0)
}

func (s *clusterScenario) setup(variant string) (instance, error) {
	in := &clusterInstance{pts: s.points()}
	switch variant {
	case "kd-gk":
		in.idx = kdtree.NewGK()
	case "kd-ml":
		in.idx = kdtree.NewML()
	default:
		return nil, fmt.Errorf("cluster: unknown detector %q", variant)
	}
	return in, nil
}

type clusterInstance struct {
	pts []kdtree.Point
	idx kdtree.Index
}

// check: n points take exactly n-1 merges and leave one cluster.
func (c *clusterInstance) check(merges int, err error) error {
	if err != nil {
		return err
	}
	if merges != len(c.pts)-1 || c.idx.Len() != 1 {
		return fmt.Errorf("cluster: %d merges leaving %d clusters, want %d leaving 1", merges, c.idx.Len(), len(c.pts)-1)
	}
	return nil
}

func (c *clusterInstance) run(workers int) runResult {
	t0 := time.Now()
	_, res, err := cluster.Run(c.idx, c.pts, engine.Options{Workers: workers})
	return runResult{stats: res.Stats, wall: time.Since(t0), err: c.check(res.Merges, err)}
}

func (c *clusterInstance) profile() (parameter.Result, error) {
	res, err := cluster.Profile(c.idx, c.pts)
	return res.Result, c.check(res.Merges, err)
}

func (c *clusterInstance) traced(rec *recorder) runResult {
	idx := &tracedIndex{Index: c.idx, rec: rec}
	d := &cluster.Dendrogram{}
	t0 := time.Now()
	rec.begin(spRun, -1)
	rec.begin(spSeed, -1) // cluster.Run seeds the index inside the solve
	c.idx.Seed(c.pts)
	rec.end()
	queue := append([]kdtree.Point(nil), c.pts...)
	stats, err := tracedLoop(rec, queue, func(tx *engine.Tx, p kdtree.Point, push func(kdtree.Point)) error {
		_, err := cluster.Step(tx, idx, d, p, push)
		return err
	})
	rec.end()
	return runResult{stats: stats, wall: time.Since(t0), err: c.check(len(d.Merges()), err)}
}

// tracedIndex wraps a kd-tree with a child span per guarded call.
type tracedIndex struct {
	kdtree.Index
	rec *recorder
}

func (t *tracedIndex) Add(tx *engine.Tx, p kdtree.Point) (bool, error) {
	t.rec.begin(adtAdd, -1)
	defer t.rec.end()
	return t.Index.Add(tx, p)
}

func (t *tracedIndex) Remove(tx *engine.Tx, p kdtree.Point) (bool, error) {
	t.rec.begin(adtRemove, -1)
	defer t.rec.end()
	return t.Index.Remove(tx, p)
}

func (t *tracedIndex) Nearest(tx *engine.Tx, p kdtree.Point) (kdtree.Point, error) {
	t.rec.begin(adtNearest, -1)
	defer t.rec.end()
	return t.Index.Nearest(tx, p)
}

func (t *tracedIndex) Contains(tx *engine.Tx, p kdtree.Point) (bool, error) {
	t.rec.begin(adtContains, -1)
	defer t.rec.end()
	return t.Index.Contains(tx, p)
}
