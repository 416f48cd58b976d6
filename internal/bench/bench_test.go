package bench

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"commlat/internal/apps"
	"commlat/internal/engine"
	"commlat/internal/parameter"
)

// tiny sizes every catalogue input so a whole table runs in a test.
var tiny = apps.Sizes{RMFa: 4, RMFb: 4, Mesh: 12, Points: 150, Parts: 8, Seed: 1}

func TestTable2SmallShape(t *testing.T) {
	cfg := Table2Config{Ops: 4000, Classes: 10, Threads: 4, Seed: 1}
	rows := Table2(cfg)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	// Paper shape (Table 2): on the distinct input the element-lock
	// schemes never abort; on the repeats input the global lock aborts
	// heavily, the gatekeeper aborts least (non-mutating adds share).
	for _, name := range []string{"Abs. Lock (Ex.)", "Abs. Lock (RW)", "Gatekeeper"} {
		if byName[name].DistinctAborts != 0 {
			t.Errorf("%s distinct abort ratio = %v, want 0", name, byName[name].DistinctAborts)
		}
	}
	if g, rw := byName["Gatekeeper"].RepeatedAborts, byName["Abs. Lock (RW)"].RepeatedAborts; g > rw {
		t.Errorf("gatekeeper repeats aborts (%v) should be ≤ rw (%v)", g, rw)
	}
	if rw, ex := byName["Abs. Lock (RW)"].RepeatedAborts, byName["Abs. Lock (Ex.)"].RepeatedAborts; rw > ex {
		t.Errorf("rw repeats aborts (%v) should be ≤ exclusive (%v)", rw, ex)
	}
	if gl := byName["Global Lock"].RepeatedAborts; gl <= byName["Abs. Lock (Ex.)"].RepeatedAborts {
		t.Errorf("global lock should abort the most, got %v", gl)
	}
	if byName["Memory (FC)"].DistinctAborts != 0 {
		t.Error("the memory-level row should not abort on distinct elements")
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Gatekeeper") || !strings.Contains(out, "Abort %") {
		t.Errorf("unexpected rendering:\n%s", out)
	}
}

func TestTable1SmallShape(t *testing.T) {
	rows, err := Table1(apps.Catalogue(tiny))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	get := func(app, variant string) Table1Row {
		for _, r := range rows {
			if r.App == app && r.Variant == variant {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", app, variant)
		return Table1Row{}
	}
	// Paper shapes: preflow parallelism grows with lattice height
	// (part ≤ ex ≤ ml); clustering's gatekeeper has a much shorter
	// critical path than memory-level detection.
	if get("Preflow-push", "part").Parallelism > get("Preflow-push", "ml").Parallelism {
		t.Error("preflow: part parallelism should not exceed ml")
	}
	if get("Clustering", "kd-gk").PathLength >= get("Clustering", "kd-ml").PathLength {
		t.Errorf("clustering: kd-gk path (%d) should be shorter than kd-ml (%d)",
			get("Clustering", "kd-gk").PathLength, get("Clustering", "kd-ml").PathLength)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Preflow-push") || !strings.Contains(out, "uf-gk") {
		t.Errorf("unexpected rendering:\n%s", out)
	}
}

func TestFiguresRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figures are timing sweeps")
	}
	threads := []int{1, 2}
	for _, app := range apps.Catalogue(apps.Sizes{RMFa: 4, RMFb: 4, Mesh: 12, Points: 200, Parts: 8, Seed: 1}) {
		fig, err := Fig(app, threads)
		if err != nil {
			t.Fatal(err)
		}
		name := fig.Title
		if len(fig.Series) < 2 {
			t.Errorf("%s: %d series", name, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Seconds) != len(threads) {
				t.Errorf("%s/%s: %d points", name, s.Name, len(s.Seconds))
			}
			for _, sec := range s.Seconds {
				if sec <= 0 {
					t.Errorf("%s/%s: non-positive time", name, s.Name)
				}
			}
		}
		if out := fig.String(); !strings.Contains(out, "threads") {
			t.Errorf("%s: rendering:\n%s", name, out)
		}
	}
}

// A guarded run that fails is reported by Table 1 and by the figures
// alike, as app/variant: err.
func TestFailingRunIsReported(t *testing.T) {
	boom := errors.New("boom")
	app := apps.Catalogue(tiny)[0]
	app.Variants = append(app.Variants[:1:1], apps.Variant{
		Name:    "broken",
		Run:     func(engine.Options) (apps.Solve, error) { return apps.Solve{}, boom },
		Profile: func() (parameter.Result, error) { return parameter.Result{}, nil },
	})
	_, errTable := Table1([]apps.App{app})
	_, errFig := Fig(app, []int{1})
	for name, err := range map[string]error{"Table1": errTable, "Fig": errFig} {
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "preflow/broken: ") {
			t.Errorf("%s: err = %v, want preflow/broken: boom", name, err)
		}
	}
}

// Every budgeted name is a row of Micros: a row renamed or dropped from
// the table would otherwise surface only in CI's alloc-gate job.
func TestBudgetNamesAreMicros(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget Budget
	if err := json.Unmarshal(data, &budget); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range Micros() {
		if rows[m.Name] {
			t.Errorf("row %s listed twice", m.Name)
		}
		rows[m.Name] = true
	}
	for name := range budget {
		if !rows[name] {
			t.Errorf("budgeted benchmark %s is not a row of Micros()", name)
		}
	}
}

func TestModelSelection(t *testing.T) {
	// The paper's three cases: (1) lower overhead beats higher
	// parallelism when o_l/a_l < o_h/a_h; (2) with few processors the
	// low-overhead scheme wins once a_l >> p; (3) a scheme with both
	// higher parallelism and lower overhead always wins.
	l := ModelEntry{Name: "low", Overhead: 1.1, Parallelism: 20}
	h := ModelEntry{Name: "high", Overhead: 5.0, Parallelism: 2000}
	// p = 8: both have a ≥ p, so overhead decides.
	if SelectScheme([]ModelEntry{l, h}, 8) != 0 {
		t.Error("at p=8 the low-overhead scheme should win")
	}
	// p = 1000: high parallelism pays off (1.1/20 > 5/1000).
	if SelectScheme([]ModelEntry{l, h}, 1000) != 1 {
		t.Error("at p=1000 the high-parallelism scheme should win")
	}
	both := ModelEntry{Name: "both", Overhead: 1.05, Parallelism: 3000}
	if SelectScheme([]ModelEntry{l, h, both}, 64) != 2 {
		t.Error("dominating scheme should always win")
	}
	out := FormatModel([]ModelEntry{l, h}, []int{4, 1000})
	if !strings.Contains(out, "*") {
		t.Errorf("model rendering lacks winner marks:\n%s", out)
	}
}

func TestModelFromTable1(t *testing.T) {
	rows := []Table1Row{
		{App: "Preflow-push", Variant: "ml", Parallelism: 100, Overhead: 5},
		{App: "Preflow-push", Variant: "part", Parallelism: 25, Overhead: 1.1},
		{App: "Boruvka", Variant: "uf-gk", Parallelism: 50, Overhead: 1.3},
	}
	entries := ModelFromTable1(rows, "Preflow-push")
	if len(entries) != 2 || entries[0].Name != "ml" {
		t.Errorf("entries = %+v", entries)
	}
}

func TestSeriesSpeedups(t *testing.T) {
	s := Series{Name: "x", Threads: []int{1, 2}, Seconds: []float64{2, 1}}
	sp := s.Speedups(2)
	if sp[0] != 1 || sp[1] != 2 {
		t.Errorf("speedups = %v", sp)
	}
}
