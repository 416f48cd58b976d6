package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"commlat/internal/engine"
)

// quickRun measures one workload at smoke-test scale with one timed
// repetition per mode.
func quickRun(t *testing.T, w *workloadCfg, seed int64, trace int) (*results, *runner) {
	t.Helper()
	r := &runner{cfg: w, sz: w.Quick, profSz: w.Quick, seed: seed, budget: time.Second, reps: 1}
	var res *results
	if trace == 1 {
		res = r.layers()
	} else {
		res = r.endToEnd()
	}
	if r.failed != 0 {
		t.Fatalf("%s seed %d trace %d: %d of %d runs failed: %v", w.Name, seed, trace, r.failed, r.attempted, r.problems)
	}
	return res, r
}

func suiteForTest(t *testing.T) []*workloadCfg {
	t.Helper()
	st, err := parseSuite(workloadsJSON)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := st.enabled("")
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// Every declared metric a workload owes appears once, with the declared
// unit and a well-formed name; nothing undeclared appears (results.add
// panics on that); and two runs from one seed agree on every exact count.
func TestMetricsDeclaredAndCountsRepeat(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range suiteForTest(t) {
		for trace := 0; trace <= 1; trace++ {
			first, _ := quickRun(t, w, 1, trace)
			second, _ := quickRun(t, w, 1, trace)
			owed := endToEnd
			if trace == 1 {
				owed = contractLayers()
			}
			for _, m := range owed {
				if _, ok := first.byKey[m.Name]; !ok {
					t.Errorf("%s trace %d: %s is not reported", w.Name, trace, m.Name)
				}
			}
			for n, s := range first.byKey {
				m, _ := declared(n)
				if !name.MatchString(n) || s.Unit == "" || s.Unit != m.Unit {
					t.Errorf("%s: metric %q has unit %q, declared %q", w.Name, n, s.Unit, m.Unit)
				}
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("%s: %s is %v", w.Name, n, s.Value)
				}
				if m.Count && s.Value != second.byKey[n].Value {
					t.Errorf("%s: count %s is %v on one run and %v on the next", w.Name, n, s.Value, second.byKey[n].Value)
				}
			}
		}
	}
}

// The inputs come from the seed: the same seed gives the same input and
// another seed another.
func TestSeedDecidesInput(t *testing.T) {
	fingerprint := func(w *workloadCfg, seed int64) string {
		switch s := apps[w.App].build(w.Quick, seed).(type) {
		case *preflowScenario:
			var arcs []any
			for _, net := range s.nets() {
				for u := 0; u < net.Len(); u++ {
					arcs = append(arcs, net.Arcs(int64(u)))
				}
			}
			return fmt.Sprint(arcs)
		case *boruvkaScenario:
			_, edges := s.mesh()
			return fmt.Sprint(edges)
		case *clusterScenario:
			return fmt.Sprint(s.points())
		case *setScenario:
			return fmt.Sprint(s.ops())
		}
		t.Fatalf("%s: unknown scenario type", w.Name)
		return ""
	}
	for _, w := range suiteForTest(t) {
		if fingerprint(w, 1) != fingerprint(w, 1) {
			t.Errorf("%s: seed 1 gives two different inputs", w.Name)
		}
		if fingerprint(w, 1) == fingerprint(w, 2) {
			t.Errorf("%s: seeds 1 and 2 give the same input", w.Name)
		}
	}
}

// A wrong answer must trip each app's oracle.
func TestCorruptedResultTripsOracle(t *testing.T) {
	sz := sizes{A: 3, B: 3, Parts: 8, Mesh: 8, Points: 100, Ops: 500, Keys: 16, Batch: 32}

	pf := newPreflow(sz, 1)
	if pf.check(0, pf.want[0], nil) != nil || pf.check(0, pf.want[0]+1, nil) == nil {
		t.Error("preflow: the oracle does not tell the right flow from a wrong one")
	}

	bs := newBoruvka(sz, 1)
	inst, _ := bs.setup("uf-gk")
	b := inst.(*boruvkaInstance)
	if b.check(bs.wantWeight, bs.wantEdges, nil) != nil ||
		b.check(bs.wantWeight*1.001, bs.wantEdges, nil) == nil || b.check(bs.wantWeight, bs.wantEdges-1, nil) == nil {
		t.Error("boruvka: the oracle does not tell the right tree from a wrong one")
	}

	inst, _ = newCluster(sz, 1).setup("kd-gk")
	c := inst.(*clusterInstance)
	if res := c.run(1); res.err != nil {
		t.Fatal(res.err)
	}
	if c.check(len(c.pts)-1, nil) != nil || c.check(len(c.pts)-2, nil) == nil {
		t.Error("cluster: the oracle does not tell n-1 merges from n-2")
	}

	for _, mode := range []setMode{setStream, setChurn, setBatched} {
		inst, _ = newSet(mode, sz, 1).setup("cascade")
		s := inst.(*setInstance)
		if res := s.run(1); res.err != nil {
			t.Fatal(res.err)
		}
		*s.slot(7) = !*s.slot(7) // one return value flipped
		if s.check(true, nil) == nil {
			t.Errorf("set mode %d: the replay oracle accepts a flipped return value", mode)
		}
		*s.slot(7) = !*s.slot(7)
		// A lost effect: an element the committed operations put there is gone.
		tx := engine.NewTx()
		if ok, err := s.set.Remove(tx, s.s.wantSet[0]); !ok || err != nil {
			t.Fatalf("set mode %d: cannot corrupt the set: %v %v", mode, ok, err)
		}
		tx.Commit()
		if s.check(true, nil) == nil || s.check(false, nil) == nil {
			t.Errorf("set mode %d: the oracles accept a set that lost an element", mode)
		}
	}
}

// workloads.json is decoded strictly, and BENCHMARK.json at the
// repository root says what this package measures.
func TestConfigAndContract(t *testing.T) {
	bad := strings.Replace(string(workloadsJSON), `"app"`, `"aap"`, 1)
	if _, err := parseSuite([]byte(bad)); err == nil {
		t.Error("a misspelt field in workloads.json is accepted")
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declaredMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var contract struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []declaredMetric `json:"end_to_end"`
		PerLayer   []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	ws := suiteForTest(t)
	if len(contract.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json enables %d", len(contract.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := contract.Workloads[i]; got.Name != w.Name || got.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json says %q, workloads.json %q (why at most 200 characters)", i, got.Name, w.Name)
		}
	}
	same := func(kind string, got []declaredMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark declares %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, declared %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd, true)
	same("per_layer", contract.PerLayer, contractLayers(), false)
}

func TestCompareVerdicts(t *testing.T) {
	m := metric{Name: "solve_s_p1", Better: "lower", Bound: 0.10}
	tight := func(v float64) side { return side{median: v, lo: v * 0.99, hi: v * 1.01, n: 10} }
	for _, tc := range []struct {
		a, b side
		want string
	}{
		{tight(1), tight(1.05), "ok"},
		{tight(1), tight(0.5), "ok"},
		{tight(1), tight(1.2), "worse"},
		{tight(1), side{median: 1.2, lo: 1.0, hi: 1.4, n: 10}, "unresolved"},
	} {
		if _, got := verdict(m, tc.a, tc.b); got != tc.want {
			t.Errorf("a %v b %v: verdict %s, want %s", tc.a.median, tc.b.median, got, tc.want)
		}
	}
	higher := metric{Name: "parallelism_a", Better: "higher", Bound: 0.05}
	if _, got := verdict(higher, tight(10), tight(9)); got != "worse" {
		t.Errorf("a drop in a higher-is-better metric is %s, want worse", got)
	}
}
