package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"commlat/internal/abslock"
	"commlat/internal/apps"
	"commlat/internal/core"
	"commlat/internal/spectext"
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

// figure8 is figure 8's pair of matrices as `commlat matrices` printed
// them before `specs -adt` took its place.
const figure8 = `full compatibility matrix (figure 8a):
             inc:ds    inc:x  read:ds read:ret
  inc:ds |        v        v        x        v
   inc:x |        v        v        v        v
 read:ds |        x        v        v        v
read:ret |        v        v        v        v

reduced compatibility matrix (figure 8b):
           inc:ds read:ds
 inc:ds |       v       x
read:ds |       x       v

`

// TestCmdMatricesAllSpecs: specs -adt prints every ADT's points, with
// the lock matrices of each one Synthesize accepts, and the
// accumulator's are figure 8's.
func TestCmdMatricesAllSpecs(t *testing.T) {
	for _, p := range apps.Specs() {
		out := readFile(t, capture(t, &os.Stdout, func() error { return dispatch("specs", []string{"-adt", p.ADT}) }))
		if !strings.Contains(out, "=== "+p.ADT+"/"+p.Name+": ") {
			t.Errorf("specs -adt %s does not print point %s:\n%s", p.ADT, p.Name, out)
		}
		if _, err := abslock.Synthesize(p.Spec()); err == nil && !strings.Contains(out, "reduced compatibility matrix") {
			t.Errorf("specs -adt %s prints no matrices for %s", p.ADT, p.Name)
		}
	}
	out := readFile(t, capture(t, &os.Stdout, func() error { return dispatch("specs", []string{"-adt", "accumulator"}) }))
	if !strings.HasSuffix(out, figure8) {
		t.Errorf("specs -adt accumulator:\n%s\nwant it to end in figure 8:\n%s", out, figure8)
	}
	if err := dispatch("specs", []string{"-adt", "nope"}); err == nil {
		t.Error("unknown ADT should fail")
	}
}

// TestCmdSpecsAndStrengthen: specs prints every point, and a
// hand-written point that is not SIMPLE with its SIMPLE strengthening,
// proved below it.
func TestCmdSpecsAndStrengthen(t *testing.T) {
	out := readFile(t, capture(t, &os.Stdout, func() error { return dispatch("specs", nil) }))
	for _, p := range apps.Specs() {
		if !strings.Contains(out, "=== "+p.ADT+"/"+p.Name+": ") {
			t.Errorf("specs does not print %s/%s", p.ADT, p.Name)
		}
	}
	for _, adt := range []string{"set", "kdtree", "unionfind"} {
		out := readFile(t, capture(t, &os.Stdout, func() error { return dispatch("specs", []string{"-adt", adt}) }))
		if !strings.Contains(out, "strongest SIMPLE specification below it (§4.1):") ||
			!strings.Contains(out, "ordering check: strengthened ≤ original: true") {
			t.Errorf("specs -adt %s prints no proved strengthening:\n%s", adt, out)
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
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

// TestCmdCheckShippedSpecs: check accepts the spec language's example
// and the spec-language spelling of every shipped point, through each
// of its SIMPLE, ONLINE-CHECKABLE and GENERAL branches.
func TestCmdCheckShippedSpecs(t *testing.T) {
	files := []string{filepath.Join("..", "..", "examples", "specs", "kv.spec")}
	classes := map[core.Class]bool{}
	dir := t.TempDir()
	for _, p := range apps.Specs() {
		spec := p.Spec()
		classes[spec.Classify()] = true
		path := filepath.Join(dir, p.ADT+"-"+p.Name+".spec")
		if err := os.WriteFile(path, []byte(spectext.Format(spec)), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	for _, c := range []core.Class{core.ClassSimple, core.ClassOnline, core.ClassGeneral} {
		if !classes[c] {
			t.Errorf("no shipped spec is %s", c)
		}
	}
	for _, path := range files {
		if err := cmdCheck([]string{"-file", path}); err != nil {
			t.Errorf("check %s: %v", filepath.Base(path), err)
		}
	}
}

func TestCmdTable2Small(t *testing.T) {
	if err := cmdTable2([]string{"-ops", "2000"}); err != nil {
		t.Errorf("table2: %v", err)
	}
}

func TestUnknownCommandIsAUsageError(t *testing.T) {
	// Returned, not os.Exit(2) from inside dispatch: main has a CPU
	// profile to stop and a telemetry snapshot to write first.
	err := dispatch("nope", nil)
	var bad usageError
	if !errors.As(err, &bad) || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("dispatch(nope) = %v, want a usageError naming the command", err)
	}
}

// Every size and count flag refuses a value no solver or recorder can
// run — each of these panicked, hung or mislabelled its row — as a
// usage error naming the flag, before anything runs.
func TestCountFlagsAreChecked(t *testing.T) {
	for _, tc := range [][]string{
		{"trace", "-app", "preflow", "-rmfa", "0"},
		{"trace", "-app", "preflow", "-rmfb", "0"},
		{"table1", "-rmfa", "0"},
		{"fig12", "-mesh", "-1"},
		{"trace", "-app", "cluster", "-points", "-5"},
		{"model", "-parts", "0"},
		{"table2", "-ops", "0"},
		{"table2", "-classes", "0"},
		{"table2", "-threads", "0"},
		{"trace", "-threads", "0"},
		{"trace", "-sample", "0"},
		{"trace", "-buf", "0"},
		{"trace", "-buf", "4611686018427387905"},
		{"flightrec", "-ring", "-1"},
		{"flightrec", "-ring", strconv.Itoa(maxRing + 1)},
		{"fig10", "-threads", "0"},
		{"model", "-procs", "1,x"},
		{"bench", "-run", "["},
		{"specs", "-adt", "foo"},
		{"check", "-file", ""},
	} {
		err := dispatch(tc[0], tc[1:])
		var bad usageError
		if flag := tc[len(tc)-2]; !errors.As(err, &bad) || !strings.Contains(err.Error(), flag+" ") {
			t.Errorf("%s = %v, want a usageError naming %s", strings.Join(tc, " "), err, flag)
		}
	}
	fs := flag.NewFlagSet("ring", flag.ContinueOnError)
	fs.Int("buf", 1, "")
	if err := parseFlags(fs, []string{"-buf", strconv.Itoa(maxRing)}); err != nil {
		t.Errorf("-buf at its bound: %v", err)
	}
}

// No command takes a positional argument: a stray one is a usageError
// naming it, before the command runs anything — flags after it included,
// which the flag package would otherwise leave unread.
func TestStrayArgumentsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		stray string
		line  []string
	}{
		{"set", []string{"specs", "set"}},
		{"extra", []string{"fig10", "extra", "-threads", "1"}},
		{"bogus", []string{"specs", "bogus"}},
		{"bogus", []string{"all", "bogus"}},
		{"bogus", []string{"help", "bogus"}},
		{"more", []string{"table2", "-ops", "10", "more"}},
		{"y.spec", []string{"check", "-file", "x.spec", "y.spec"}},
	} {
		err := dispatch(tc.line[0], tc.line[1:])
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), strconv.Quote(tc.stray)) {
			t.Errorf("%s = %v, want a usageError naming %q", strings.Join(tc.line, " "), err, tc.stray)
		}
	}
	if err := dispatch("check", nil); !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), "-file ") {
		t.Errorf("check without -file = %v, want a usageError naming -file", err)
	}
}

// An undefined flag is a usageError naming it, returned from every
// command before it runs anything, so main's teardown still writes the
// profiles and the snapshot.
func TestUndefinedFlagIsAUsageError(t *testing.T) {
	for _, c := range commands() {
		err := dispatch(c.name, []string{"-bogus"})
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), "-bogus") {
			t.Errorf("%s -bogus = %v, want a usageError naming -bogus", c.name, err)
		}
	}
}

// Two documents back to back on stdout are not one parseable stream:
// each command refuses them before it runs, naming both flags.
func TestTwoDocumentsOnStdoutAreRefused(t *testing.T) {
	for _, line := range [][]string{
		{"trace", "-o", "-", "-jsonl", "-"},
		{"flightrec", "-o", "-", "-percentiles", "-"},
	} {
		err := dispatch(line[0], line[1:])
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), line[1]+" ") || !strings.Contains(err.Error(), line[3]+" ") {
			t.Errorf("%s = %v, want a usageError naming %s and %s", strings.Join(line, " "), err, line[1], line[3])
		}
	}
}

// flagNames are the -name words of a help text: a dash after a space or
// an opening parenthesis, then a lower-case name. definedFlags are the
// names in what flag.PrintDefaults prints.
var (
	flagNames    = regexp.MustCompile(`(?:^|[\s(])-([a-z](?:[a-z-]*[a-z])?)\b`)
	definedFlags = regexp.MustCompile(`(?m)^  -(\S+)`)
)

// Every flag a command's summary names is defined on that command or
// globally, and every flag usage() names is defined on some command or
// globally (-h is the flag package's own). Each command's flags are
// read from what its -h prints.
func TestHelpTextNamesDefinedFlags(t *testing.T) {
	global := globalFlags(new(globals))
	all := map[string]bool{"h": true}
	global.VisitAll(func(f *flag.Flag) { all[f.Name] = true })
	for _, c := range commands() {
		var err error
		help := readFile(t, capture(t, &os.Stderr, func() error {
			err = dispatch(c.name, []string{"-h"})
			return nil
		}))
		if !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h = %v, want flag.ErrHelp", c.name, err)
		}
		defined := map[string]bool{}
		for _, m := range definedFlags.FindAllStringSubmatch(help, -1) {
			defined[m[1]], all[m[1]] = true, true
		}
		for _, m := range flagNames.FindAllStringSubmatch(c.summary, -1) {
			if !defined[m[1]] && global.Lookup(m[1]) == nil {
				t.Errorf("%s's summary names -%s, which it does not define", c.name, m[1])
			}
		}
	}
	var out bytes.Buffer
	usage(&out)
	for _, m := range flagNames.FindAllStringSubmatch(out.String(), -1) {
		if !all[m[1]] {
			t.Errorf("usage names -%s, which no command defines", m[1])
		}
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
	out := readFile(t, capture(t, &os.Stdout, func() error { return dispatch("bench", []string{"-run", "^CondEval$"}) }))
	if rows := strings.Count(out, "allocs/op"); rows != 1 || !strings.HasPrefix(out, "CondEval ") {
		t.Errorf("bench printed %q; want the one CondEval row", out)
	}
	if err := dispatch("bench", []string{"-q", "-run", "NoSuchRow"}); err == nil {
		t.Error("a -run that selects nothing should fail")
	}
}

// capture runs f with *std (os.Stdout or os.Stderr) redirected to a file
// and returns the file's path.
func capture(t *testing.T, std **os.File, f func() error) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	saved := *std
	*std = out
	err = f()
	*std = saved
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
	jsonl := capture(t, &os.Stdout, func() error {
		return dispatch("trace", []string{"-app", "boruvka", "-mesh", "12", "-threads", "4", "-jsonl", "-"})
	})
	tracecheck(jsonl)

	chrome := filepath.Join(dir, "chrome.json")
	if err := dispatch("trace", []string{"-app", "preflow", "-detector", "part", "-rmfa", "4", "-rmfb", "4", "-threads", "4", "-o", chrome}); err != nil {
		t.Fatal(err)
	}
	tracecheck("-chrome", chrome)

	// A document sent to stdout with -o - or -jsonl - is all of stdout:
	// the report goes to stderr.
	small := []string{"-app", "boruvka", "-mesh", "6", "-threads", "2"}
	tracecheck(capture(t, &os.Stdout, func() error {
		return dispatch("trace", append(small, "-jsonl", "-", "-o", chrome))
	}))
	tracecheck("-chrome", capture(t, &os.Stdout, func() error {
		return dispatch("trace", append(small, "-o", "-", "-jsonl", filepath.Join(dir, "trace.jsonl")))
	}))

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
