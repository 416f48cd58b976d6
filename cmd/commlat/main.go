// Command commlat regenerates the tables and figures of "Exploiting the
// Commutativity Lattice" (PLDI 2011) and prints the synthesized
// abstract-locking artifacts. `commlat help` lists the commands (one
// table, commands(), drives dispatch, the usage text and `all`) and
// `commlat <command> -h` a command's flags.
//
// Paper-scale inputs are a matter of flags (e.g. -points 500000
// -mesh 1000 -ops 1000000); defaults finish in seconds on a laptop.
//
// The global flags -cpuprofile and -memprofile, given before the
// command, write pprof profiles covering the whole run:
//
//	commlat -cpuprofile cpu.out table2 -ops 1000000
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"commlat/internal/abslock"
	"commlat/internal/adaptive"
	"commlat/internal/adt/accum"
	"commlat/internal/adt/flowgraph"
	"commlat/internal/adt/intset"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/analysis"
	"commlat/internal/apps"
	"commlat/internal/bench"
	"commlat/internal/core"
	"commlat/internal/spectext"
	"commlat/internal/telemetry"
	"commlat/internal/workload"
)

func main() {
	global := flag.NewFlagSet("commlat", flag.ExitOnError)
	global.Usage = func() { usage(os.Stderr) }
	cpuProfile := global.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := global.String("memprofile", "", "write a heap profile to this file on exit")
	listen := global.String("listen", "", "serve live telemetry (/metrics, /debug/telemetry, /debug/vars) on this address for the run's duration")
	telemetryOut := global.String("telemetry-out", "", "write a final telemetry snapshot (JSON, cascade stage counters included) to this file on exit")
	if err := global.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if global.NArg() < 1 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var srv *http.Server
	var srvDone chan struct{}
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "commlat:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "commlat: telemetry on http://%s/\n", ln.Addr())
		srv = &http.Server{Handler: telemetry.Handler(telemetry.Default)}
		srvDone = make(chan struct{})
		go func() {
			defer close(srvDone)
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "commlat: telemetry server:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "commlat:", err)
			os.Exit(1)
		}
	}
	// Teardown runs exactly once, from whichever path gets there first —
	// the subcommand returning or a termination signal — so an
	// interrupted run still flushes its profiles, drains in-flight
	// telemetry scrapes, and writes its final snapshot.
	var teardownOnce sync.Once
	var teardownErr error
	teardown := func() {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if srv != nil {
			// Drain in-flight scrapes before exiting: a Prometheus poll
			// that raced the run's end still gets its complete response.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if serr := srv.Shutdown(ctx); serr != nil {
				fmt.Fprintln(os.Stderr, "commlat: telemetry server shutdown:", serr)
			}
			cancel()
			<-srvDone
		}
		for _, werr := range []error{ // an unset path writes nothing
			writeTo(*telemetryOut, writeTelemetrySnapshot),
			writeTo(*memProfile, writeHeapProfile),
		} {
			if werr != nil {
				fmt.Fprintln(os.Stderr, "commlat:", werr)
				teardownErr = werr
			}
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "commlat: %v: shutting down\n", s)
		teardownOnce.Do(teardown)
		code := 130 // 128 + SIGINT
		if s == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()

	err := dispatch(global.Arg(0), global.Args()[1:])
	teardownOnce.Do(teardown)
	var bad usageError
	if errors.As(err, &bad) {
		fmt.Fprintln(os.Stderr, "commlat:", err)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err == nil {
		err = teardownErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "commlat:", err)
		os.Exit(1)
	}
}

// writeTelemetrySnapshot dumps the default registry's counters — the
// same JSON the /debug/telemetry endpoint serves — so batch runs can
// keep per-stage cascade statistics without a live HTTP listener.
func writeTelemetrySnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(telemetry.Default.Snapshot())
}

func writeHeapProfile(w io.Writer) error {
	runtime.GC() // capture the retained heap, not transient garbage
	return pprof.WriteHeapProfile(w)
}

// command is one subcommand. dispatch, the usage text and `all` read
// the one table of them.
type command struct {
	name    string
	summary string // usage text, continuation lines after "\n"
	run     func(args []string) error
	// inAll is the heading under which `all` runs the command with its
	// default flags; empty leaves the command out of `all`.
	inAll string
}

func commands() []command {
	return []command{
		{"table1", "critical path / parallelism / overhead per app and variant", cmdTable1,
			"table 1 — path / parallelism / overhead"},
		{"table2", "set microbenchmark abort ratios and times", cmdTable2, "table 2 — set microbenchmark"},
		{"bench", "detector micro-benchmarks (ns/op, allocs/op), serial and\n" +
			"batched admission rows (DetectorCascadeBatch*, CascadeBatch);\n" +
			"-json writes BENCH_fresh.json for the CI allocation gate", cmdBench, ""},
		{"fig10", "preflow-push run time vs threads (part, ex, ml)", cmdFig(10), ""},
		{"fig11", "clustering run time vs threads (kd-ml vs kd-gk)", cmdFig(11), ""},
		{"fig12", "Boruvka run time vs threads (uf-ml vs uf-gk)", cmdFig(12), ""},
		{"matrices", "synthesized lock modes and compatibility matrices (fig. 8)", cmdMatrices,
			"figure 8 — synthesized matrices"},
		{"model", "the §5 T·o/min(a,p) scheme-selection model on Table 1's rows", cmdModel,
			"§5 model — scheme selection (preflow-push)"},
		{"specs", "print every commutativity specification and its class", cmdSpecs, ""},
		{"strengthen", "derive the strongest SIMPLE spec below a given one (§4.1)", cmdStrengthen,
			"§4.1 — strengthening figure 2 to figure 3"},
		{"adaptive", "run the §5 future-work adaptive scheme selector on the set\n" +
			"(-shards N overrides the cascade-sharded rung's shard count)", cmdAdaptive,
			"§5 future work — adaptive selection"},
		{"trace", "run one app with the telemetry event trace enabled; writes a\n" +
			"Chrome trace_event JSON (and optionally JSONL) plus the\n" +
			"per-method-pair conflict attribution table", cmdTrace, ""},
		{"flightrec", "run one app with stage-latency histograms and the flight\n" +
			"recorder enabled; prints the percentile table, recent\n" +
			"admission records and the controller audit trail (-json,\n" +
			"-percentiles/-heatmap/-audit write the JSON documents)", cmdFlightrec, ""},
		{"check", "parse a textual specification file, classify and synthesize it", cmdCheck, ""},
		{"all", "run every quick experiment (tables, matrices, model, adaptive)", cmdAll, ""},
		{"help", "print this text", func([]string) error { usage(os.Stderr); return nil }, ""},
	}
}

// usageError is a command line the command table cannot run. main
// reports it after its teardown, like any other error, then prints the
// usage text and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func dispatch(name string, args []string) error {
	for _, c := range commands() {
		if c.name == name {
			return c.run(args)
		}
	}
	return usageError(fmt.Sprintf("unknown command %q", name))
}

func cmdAll(args []string) error {
	for _, c := range commands() {
		if c.inAll == "" {
			continue
		}
		fmt.Printf("\n════ %s ════\n", c.inAll)
		if err := c.run(nil); err != nil {
			return fmt.Errorf("%s: %w", c.inAll, err)
		}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, `commlat — reproduce "Exploiting the Commutativity Lattice" (PLDI 2011)

commands:
`)
	for _, c := range commands() {
		fmt.Fprintf(w, "  %-10s %s\n", c.name, strings.ReplaceAll(c.summary, "\n", "\n             "))
	}
	fmt.Fprint(w, `
global flags (before the command):
  -cpuprofile FILE  write a pprof CPU profile of the whole run
  -memprofile FILE  write a pprof heap profile at exit
  -listen ADDR      serve live telemetry over HTTP while the command runs
                    (/metrics Prometheus text, /debug/telemetry JSON,
                    /debug/vars expvar)
  -telemetry-out FILE  write the final telemetry snapshot as JSON on exit
                    (engine counters plus per-detector stats, cascade
                    stage counters included; same schema as
                    /debug/telemetry, checked by scripts/tracecheck)

trace and flightrec pick the variant with -detector, by Table 1's name
(preflow: part|ex|ml; boruvka: uf-ml|uf-gk|uf-generic; cluster:
kd-ml|kd-gk).

run "commlat <command> -h" for flags.
`)
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread list %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeTo calls write on the file it creates at path, or on stdout when
// path is "-"; an empty path asks for nothing and writes nothing.
func writeTo(path string, write func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Default input sizes, laptop-scaled: Table 1 and the model complete in
// seconds, the figures run larger inputs and the traced runs smaller.
var (
	table1Sizes = apps.Sizes{RMFa: 6, RMFb: 6, Mesh: 24, Points: 600, Parts: 32, Seed: 1}
	figSizes    = apps.Sizes{RMFa: 8, RMFb: 8, Mesh: 48, Points: 1500, Parts: 32, Seed: 1}
	traceSizes  = apps.Sizes{RMFa: 6, RMFb: 6, Mesh: 16, Points: 400, Parts: 32, Seed: 1}
)

// addSizeFlags registers the catalogue's input sizes on fs, with *sz as
// the defaults.
func addSizeFlags(fs *flag.FlagSet, sz *apps.Sizes) {
	fs.IntVar(&sz.RMFa, "rmfa", sz.RMFa, "GENRMF frame side (preflow)")
	fs.IntVar(&sz.RMFb, "rmfb", sz.RMFb, "GENRMF frame count (preflow)")
	fs.IntVar(&sz.Mesh, "mesh", sz.Mesh, "Boruvka mesh side (paper: 1000)")
	fs.IntVar(&sz.Points, "points", sz.Points, "clustering points (paper: 100000 in table 1, 500000 in figure 11)")
	fs.IntVar(&sz.Parts, "parts", sz.Parts, "preflow partitions under part (paper: 32)")
	fs.Int64Var(&sz.Seed, "seed", sz.Seed, "generator seed")
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "write the results as JSON to -o")
	out := fs.String("o", "BENCH_fresh.json", "output path for -json (- for stdout)")
	run := fs.String("run", "", "regexp selecting benchmarks to run (default all)")
	quiet := fs.Bool("q", false, "suppress the progress table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var filter *regexp.Regexp
	if *run != "" {
		var err error
		if filter, err = regexp.Compile(*run); err != nil {
			return fmt.Errorf("bad -run regexp: %w", err)
		}
	}
	progress := io.Writer(os.Stderr)
	if *quiet {
		progress = nil
	}
	results := bench.RunMicros(filter, progress)
	if len(results) == 0 {
		return fmt.Errorf("no benchmarks match %q", *run)
	}
	if !*jsonOut {
		return nil
	}
	return writeTo(*out, func(w io.Writer) error { return bench.WriteJSON(w, results) })
}

// table1Memo keeps Table 1's rows per input sizes for the process: the
// model reads the rows table1 prints, so `all` measures them once.
var table1Memo = map[apps.Sizes][]bench.Table1Row{}

func table1Rows(sz apps.Sizes) ([]bench.Table1Row, error) {
	if rows, ok := table1Memo[sz]; ok {
		return rows, nil
	}
	rows, err := bench.Table1(apps.Catalogue(sz))
	if err == nil {
		table1Memo[sz] = rows
	}
	return rows, err
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	sz := table1Sizes
	addSizeFlags(fs, &sz)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := table1Rows(sz)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable1(rows))
	return nil
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	cfg := bench.DefaultTable2()
	fs.IntVar(&cfg.Ops, "ops", cfg.Ops, "operations (paper: 1000000)")
	fs.IntVar(&cfg.Classes, "classes", cfg.Classes, "equivalence classes (paper: 10)")
	fs.IntVar(&cfg.Threads, "threads", cfg.Threads, "overlap window / threads (paper: 4)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "stream seed")
	fs.BoolVar(&cfg.Extended, "ext", false, "add extension rows (liberal locks, object STM)")
	stats := fs.Bool("stats", false, "print gatekeeper work counters (probes, collisions, fallbacks)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows := bench.Table2(cfg)
	fmt.Print(bench.FormatTable2(rows))
	if *stats {
		fmt.Println()
		fmt.Print(bench.FormatTable2Stats(rows))
	}
	return nil
}

// cmdFig is the command of the paper's figure n: the thread sweep of the
// catalogue's app with that figure number.
func cmdFig(n int) func(args []string) error {
	return func(args []string) error {
		fs := flag.NewFlagSet(fmt.Sprintf("fig%d", n), flag.ExitOnError)
		threadList := fs.String("threads", "1,2,4,8", "comma-separated thread counts")
		sz := figSizes
		addSizeFlags(fs, &sz)
		if err := fs.Parse(args); err != nil {
			return err
		}
		threads, err := parseThreads(*threadList)
		if err != nil {
			return err
		}
		for _, app := range apps.Catalogue(sz) {
			if app.Figure != n {
				continue
			}
			fig, err := bench.Fig(app, threads)
			if err != nil {
				return err
			}
			fmt.Print(fig.String())
		}
		return nil
	}
}

func cmdMatrices(args []string) error {
	fs := flag.NewFlagSet("matrices", flag.ExitOnError)
	which := fs.String("spec", "accumulator", "accumulator | set | flowgraph")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs := map[string][]*core.Spec{
		"accumulator": {accum.Spec()},
		"set":         {intset.RWSpec(), intset.ExclusiveSpec(), intset.BottomSpec()},
		"flowgraph":   {flowgraph.RWSpec(), flowgraph.ExclusiveSpec()},
	}
	list, ok := specs[*which]
	if !ok {
		return fmt.Errorf("unknown spec %q", *which)
	}
	for _, spec := range list {
		fmt.Printf("=== %s (%s)\n%s\n", spec.Sig.Name, spec.Classify(), spec)
		scheme, err := abslock.Synthesize(spec)
		if err != nil {
			return err
		}
		fmt.Println("full compatibility matrix (figure 8a):")
		fmt.Println(scheme.MatrixString())
		fmt.Println("reduced compatibility matrix (figure 8b):")
		fmt.Println(scheme.Reduce().MatrixString())
	}
	return nil
}

func cmdModel(args []string) error {
	fs := flag.NewFlagSet("model", flag.ExitOnError)
	appName := fs.String("app", "Preflow-push", "Preflow-push | Boruvka | Clustering")
	procs := fs.String("procs", "1,2,4,8,64,1024", "processor counts")
	sz := table1Sizes
	addSizeFlags(fs, &sz)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ps, err := parseThreads(*procs)
	if err != nil {
		return err
	}
	app, err := apps.Lookup(apps.Catalogue(sz), *appName)
	if err != nil {
		return err
	}
	rows, err := table1Rows(sz)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatModel(bench.ModelFromTable1(rows, app.Title), ps))
	return nil
}

func cmdSpecs(args []string) error {
	all := []*core.Spec{
		intset.PreciseSpec(), intset.RWSpec(), intset.ExclusiveSpec(),
		intset.PartitionedSpec(), intset.BottomSpec(),
		kdtree.Spec(), unionfind.Spec(),
		flowgraph.RWSpec(), flowgraph.ExclusiveSpec(), flowgraph.PartitionedSpec(),
		accum.Spec(),
	}
	for _, s := range all {
		fmt.Printf("— %s [%s]\n%s\n", s.Sig.Name, s.Classify(), s)
	}
	return nil
}

func cmdStrengthen(args []string) error {
	fs := flag.NewFlagSet("strengthen", flag.ExitOnError)
	which := fs.String("spec", "set", "set | kdtree | unionfind")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := map[string]*core.Spec{
		"set": intset.PreciseSpec(), "kdtree": kdtree.Spec(), "unionfind": unionfind.Spec(),
	}[*which]
	if !ok {
		return fmt.Errorf("unknown spec %q", *which)
	}
	fmt.Printf("original (%s):\n%s\n", spec.Classify(), spec)
	simple := core.StrengthenToSimple(spec)
	fmt.Printf("strongest SIMPLE specification below it (§4.1):\n%s\n", simple)
	fmt.Println("ordering check: strengthened ≤ original:", simple.LE(spec))
	scheme, err := abslock.Synthesize(simple)
	if err != nil {
		return err
	}
	fmt.Println("synthesized reduced lock matrix:")
	fmt.Println(scheme.Reduce().MatrixString())
	return nil
}

func cmdAdaptive(args []string) error {
	fs := flag.NewFlagSet("adaptive", flag.ExitOnError)
	ops := fs.Int("ops", 60000, "operations")
	classes := fs.Int("classes", 10, "equivalence classes")
	epoch := fs.Int("epoch", 5000, "epoch size")
	window := fs.Int("window", 4, "overlap window (threads)")
	seed := fs.Int64("seed", 1, "stream seed")
	start := fs.String("start", "", "starting rung by name (default: the bottom of the ladder)")
	shards := fs.Int("shards", 0, "shard count for the cascade-sharded rung (0: gatekeeper.DefaultShards for this GOMAXPROCS)")
	auditOut := fs.String("audit", "", "write the controller decision audit trail as JSON to this file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ladder := adaptive.DefaultLadder()
	for i := range ladder {
		if ladder[i].Name == "cascade-sharded" {
			ladder[i] = adaptive.ShardedRung(*shards)
		}
	}
	startRung := 0
	if *start != "" {
		startRung = slices.IndexFunc(ladder, func(r adaptive.Rung) bool { return r.Name == *start })
		if startRung < 0 {
			names := make([]string, len(ladder))
			for i, r := range ladder {
				names[i] = r.Name
			}
			return fmt.Errorf("unknown rung %q (ladder: %s)", *start, strings.Join(names, ", "))
		}
	}
	stream := workload.SetOpsClasses(*ops, *classes, *seed)
	telemetry.ResetAudit()
	trace, err := adaptive.Run(ladder, stream, *epoch, *window, startRung)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-12s %10s %12s\n", "epoch", "rung", "abort %", "ops/s")
	for i, s := range trace.Samples {
		fmt.Printf("%-8d %-12s %10.2f %12.0f\n", i, ladder[s.Rung].Name, s.AbortRatio*100, s.Throughput)
	}
	fmt.Printf("switches: %d; final set size: %d\n", trace.Switches, len(trace.Final.Snapshot()))
	return writeTo(*auditOut, telemetry.WriteAuditJSON)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	file := fs.String("file", "", "specification file (see internal/spectext); - for stdin")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("usage: commlat check -file <spec.txt>")
	}
	var src []byte
	var err error
	if *file == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(*file)
	}
	if err != nil {
		return err
	}
	spec, err := spectext.Parse(string(src))
	if err != nil {
		return err
	}
	// Static verification first: a spec that is ill-formed, covertly
	// asymmetric, or lattice-broken should fail check before anything
	// is synthesized from it.
	specName := *file
	if specName != "-" {
		specName = filepath.Base(specName)
	}
	if findings := analysis.VetSpec(specName, spec); len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: %s\n", f.Pos, f.Message)
		}
		return fmt.Errorf("specvet: %d finding(s)", len(findings))
	}
	fmt.Printf("parsed %s: %d methods, class %s (specvet: verified)\n\n", spec.Sig.Name, len(spec.Sig.Methods), spec.Classify())
	fmt.Print(spectext.Format(spec))
	fmt.Println()
	switch spec.Classify() {
	case core.ClassSimple:
		scheme, err := abslock.Synthesize(spec)
		if err != nil {
			return err
		}
		fmt.Println("SIMPLE: synthesized abstract locking scheme (reduced):")
		fmt.Println(scheme.Reduce().MatrixString())
	case core.ClassOnline:
		fmt.Println("ONLINE-CHECKABLE: implementable by a forward gatekeeper (§3.3.1).")
		if scheme, err := abslock.SynthesizeLiberal(spec); err == nil {
			fmt.Println("...and GUARDED-SIMPLE: liberal locking (footnote 6) also applies:")
			fmt.Println(scheme.Reduce().MatrixString())
		}
	default:
		fmt.Println("GENERAL: requires a general gatekeeper (§3.3.2).")
	}
	simple := core.StrengthenToSimple(spec)
	if spec.Classify() != core.ClassSimple {
		fmt.Println("\nstrongest SIMPLE specification below it (§4.1):")
		fmt.Print(spectext.Format(simple))
	}
	return nil
}
