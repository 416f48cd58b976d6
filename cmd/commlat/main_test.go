package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"commlat/internal/apps"
	"commlat/internal/bench"
)

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseThreads = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "a", "1,,2", "-3"} {
		if _, err := parseThreads(bad); err == nil {
			t.Errorf("parseThreads(%q) should fail", bad)
		}
	}
}

func TestCmdMatricesAllSpecs(t *testing.T) {
	for _, which := range []string{"accumulator", "set", "flowgraph"} {
		if err := cmdMatrices([]string{"-spec", which}); err != nil {
			t.Errorf("matrices %s: %v", which, err)
		}
	}
	if err := cmdMatrices([]string{"-spec", "nope"}); err == nil {
		t.Error("unknown spec should fail")
	}
}

func TestCmdSpecsAndStrengthen(t *testing.T) {
	if err := cmdSpecs(nil); err != nil {
		t.Errorf("specs: %v", err)
	}
	for _, which := range []string{"set", "kdtree", "unionfind"} {
		if err := cmdStrengthen([]string{"-spec", which}); err != nil {
			t.Errorf("strengthen %s: %v", which, err)
		}
	}
	if err := cmdStrengthen([]string{"-spec", "nope"}); err == nil {
		t.Error("unknown spec should fail")
	}
}

func TestCmdCheckFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.spec")
	src := `
adt reg
method put(k) ret
method get(k) ret
put ~ put: v1.k != v2.k
put ~ get: v1.k != v2.k
get ~ get: true
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCheck([]string{"-file", path}); err != nil {
		t.Errorf("check: %v", err)
	}
	if err := cmdCheck([]string{"-file", filepath.Join(dir, "missing.spec")}); err == nil {
		t.Error("missing file should fail")
	}
	if err := cmdCheck(nil); err == nil {
		t.Error("missing -file should fail")
	}
}

func TestCmdCheckShippedSpecs(t *testing.T) {
	// The example spec files must stay parseable.
	for _, name := range []string{"set.spec", "kv.spec", "unionfind.spec"} {
		path := filepath.Join("..", "..", "examples", "specs", name)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("missing example spec %s: %v", name, err)
		}
		if err := cmdCheck([]string{"-file", path}); err != nil {
			t.Errorf("check %s: %v", name, err)
		}
	}
}

func TestCmdTable2Small(t *testing.T) {
	if err := cmdTable2([]string{"-ops", "2000", "-ext"}); err != nil {
		t.Errorf("table2: %v", err)
	}
}

func TestCmdAdaptiveSmall(t *testing.T) {
	if err := cmdAdaptive([]string{"-ops", "4000", "-epoch", "1000"}); err != nil {
		t.Errorf("adaptive: %v", err)
	}
}

func TestUnknownCommandIsAUsageError(t *testing.T) {
	// Returned, not os.Exit(2) from inside dispatch: main has a CPU
	// profile to stop and a -listen server to drain first.
	err := dispatch("nope", nil)
	var bad usageError
	if !errors.As(err, &bad) || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("dispatch(nope) = %v, want a usageError naming the command", err)
	}
}

// The usage text lists every command of the table and, for -detector,
// every variant name of the catalogue (the text is written by hand).
func TestUsageListsCommandsAndVariants(t *testing.T) {
	var out bytes.Buffer
	usage(&out)
	for _, c := range commands() {
		if !strings.Contains(out.String(), "\n  "+c.name+" ") {
			t.Errorf("usage does not list command %q:\n%s", c.name, out.String())
		}
	}
	for _, app := range apps.Catalogue(traceSizes) {
		for _, v := range app.Variants {
			if !strings.Contains(out.String(), v.Name) {
				t.Errorf("usage does not name variant %s of %s", v.Name, app.Key)
			}
		}
	}
}

// tinySizes are size flags under which every catalogue command runs in
// well under a second.
var tinySizes = []string{"-rmfa", "4", "-rmfb", "4", "-mesh", "12", "-points", "150", "-parts", "8"}

func TestCatalogueCommandsSmall(t *testing.T) {
	for _, tc := range [][]string{
		{"table1"},
		{"model", "-app", "boruvka", "-procs", "1,8"},
		{"fig10", "-threads", "1,2"},
		{"fig11", "-threads", "1,2"},
		{"fig12", "-threads", "1,2"},
	} {
		if err := dispatch(tc[0], append(tc[1:], tinySizes...)); err != nil {
			t.Errorf("%s: %v", strings.Join(tc, " "), err)
		}
	}
	if err := dispatch("model", []string{"-app", "nope"}); err == nil {
		t.Error("model -app nope should fail")
	}
}

// The model reads the rows table1 measured at the same sizes instead of
// measuring Table 1 again (`all` runs both).
func TestModelReusesTable1Rows(t *testing.T) {
	sz := apps.Sizes{RMFa: 3, RMFb: 3, Mesh: 8, Points: 60, Parts: 4, Seed: 7}
	rows, err := table1Rows(sz)
	if err != nil || len(rows) != 7 {
		t.Fatalf("table1Rows: %d rows, %v", len(rows), err)
	}
	again, err := table1Rows(sz)
	if err != nil || &again[0] != &rows[0] {
		t.Errorf("second table1Rows at the same sizes measured again (%v)", err)
	}
}

func TestCmdBenchSelectsRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := dispatch("bench", []string{"-q", "-run", "^CondEval$", "-json", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.MicroReport
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "CondEval" {
		t.Errorf("report = %+v, %v; want the one CondEval row", rep, err)
	}
	if err := dispatch("bench", []string{"-q", "-run", "NoSuchRow"}); err == nil {
		t.Error("a -run that selects nothing should fail")
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// the file's path.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = out
	err = f()
	os.Stdout = saved
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.Name()
}

// trace and flightrec, through the command table at tiny sizes, write
// documents that the tracecheck decoders of CI's trace-schema job accept.
func TestTraceDocumentsPassTracecheck(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(dir, "tracecheck")
	if out, err := exec.Command("go", "build", "-o", tool, "../../scripts/tracecheck").CombinedOutput(); err != nil {
		t.Fatalf("building tracecheck: %v\n%s", err, out)
	}
	tracecheck := func(args ...string) {
		t.Helper()
		if out, err := exec.Command(tool, args...).CombinedOutput(); err != nil {
			t.Errorf("tracecheck %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	jsonl := captureStdout(t, func() error {
		return dispatch("trace", []string{"-app", "boruvka", "-mesh", "12", "-threads", "4", "-json"})
	})
	tracecheck(jsonl)

	chrome := filepath.Join(dir, "chrome.json")
	if err := dispatch("trace", []string{"-app", "preflow", "-detector", "part", "-rmfa", "4", "-rmfb", "4", "-threads", "4", "-o", chrome}); err != nil {
		t.Fatal(err)
	}
	tracecheck("-chrome", chrome)

	flight, percentiles := filepath.Join(dir, "flight.json"), filepath.Join(dir, "percentiles.json")
	if err := dispatch("flightrec", []string{"-app", "cluster", "-points", "150", "-threads", "4", "-o", flight, "-percentiles", percentiles}); err != nil {
		t.Fatal(err)
	}
	tracecheck("-flight", flight)
	tracecheck("-percentiles", percentiles)

	if err := dispatch("trace", []string{"-app", "cluster", "-detector", "uf-gk"}); err == nil {
		t.Error("cluster has no uf-gk variant")
	}
}
