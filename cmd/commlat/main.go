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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
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

	"commlat/internal/abslock"
	"commlat/internal/analysis"
	"commlat/internal/apps"
	"commlat/internal/bench"
	"commlat/internal/core"
	"commlat/internal/spectext"
	"commlat/internal/telemetry"
)

// globals are the flags given before the command.
type globals struct {
	cpuProfile, memProfile, telemetryOut string
}

// globalFlags registers the global flags on a new FlagSet, filling g.
func globalFlags(g *globals) *flag.FlagSet {
	fs := flag.NewFlagSet("commlat", flag.ExitOnError)
	fs.Usage = func() { usage(os.Stderr) }
	fs.StringVar(&g.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&g.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&g.telemetryOut, "telemetry-out", "", "write a final telemetry snapshot (JSON, cascade stage counters and lock mode rows included) to this file on exit")
	return fs
}

func main() {
	var g globals
	global := globalFlags(&g)
	if err := global.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if global.NArg() < 1 {
		usage(os.Stderr)
		os.Exit(2)
	}
	if g.cpuProfile != "" {
		f, err := os.Create(g.cpuProfile)
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
	// interrupted run still flushes its profiles and writes its final
	// snapshot.
	var teardownOnce sync.Once
	var teardownErr error
	teardown := func() {
		if g.cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		for _, werr := range []error{ // an unset path writes nothing
			writeTo(g.telemetryOut, writeTelemetrySnapshot),
			writeTo(g.memProfile, writeHeapProfile),
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
	if errors.Is(err, flag.ErrHelp) { // the command printed its flags
		err = nil
	}
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

// writeTelemetrySnapshot dumps the default registry's counters, so batch
// runs keep per-stage cascade statistics.
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
			"`go test ./internal/bench` holds each row to its allocation budget", cmdBench, ""},
		{"fig10", "preflow-push run time vs threads (part, ex, ml)", cmdFig(10), ""},
		{"fig11", "clustering run time vs threads (kd-ml vs kd-gk)", cmdFig(11), ""},
		{"fig12", "Boruvka run time vs threads (uf-ml vs uf-gk)", cmdFig(12), ""},
		{"model", "the §5 T·o/min(a,p) scheme-selection model on Table 1's rows", cmdModel,
			"§5 model — scheme selection (preflow-push)"},
		{"specs", "every shipped lattice point with its §4 move, class and\n" +
			"conditions, the lock matrices of each synthesizable one\n" +
			"(fig. 8) and the SIMPLE strengthening of each non-SIMPLE\n" +
			"hand-written one (§4.1); -adt picks one ADT", cmdSpecs,
			"specifications — lattice moves, figure 8 matrices, §4.1 strengthening"},
		{"trace", "run one app with the telemetry event trace enabled; writes a\n" +
			"Chrome trace_event JSON (and optionally JSONL) plus the\n" +
			"per-method-pair conflict attribution table", cmdTrace, ""},
		{"flightrec", "run one app with stage-latency histograms and the flight\n" +
			"recorder enabled; prints the percentile table and recent\n" +
			"admission records (-o and -percentiles write the JSON\n" +
			"documents)", cmdFlightrec, ""},
		{"check", "parse a textual specification file, classify and synthesize it", cmdCheck, ""},
		{"all", "run every quick experiment (tables, specifications, model)", cmdAll, ""},
		{"help", "print this text", cmdHelp, ""},
	}
}

// usageError is a command line the command table cannot run. main
// reports it after its teardown, like any other error, then prints the
// usage text and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// maxRing bounds the -buf and -ring capacities: every worker shard of a
// recorder is allocated at it, rounded up to a power of two.
const maxRing = 1 << 20

// countFlags are the size and count flags, each with the largest value
// it takes; the least is 1 for all of them.
var countFlags = map[string]int{
	"rmfa": math.MaxInt, "rmfb": math.MaxInt, "mesh": math.MaxInt, "points": math.MaxInt, "parts": math.MaxInt,
	"ops": math.MaxInt, "classes": math.MaxInt, "threads": math.MaxInt, "sample": math.MaxInt,
	"buf": maxRing, "ring": maxRing,
}

// parseFlags parses a command's flags and then checks every int flag
// countFlags names, so a size or count no solver or recorder can run is
// a usageError before anything runs. So is a flag fs does not define,
// and a leftover argument: no command takes one, and flags after it
// would go unread. -h prints fs's flags and returns flag.ErrHelp.
// Nothing exits from here: main's teardown runs on every path.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard) // main reports a parse error, once
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "flags of %s:\n", fs.Name())
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		return err
	} else if err != nil {
		return usageError(fmt.Sprintf("%s: %v", fs.Name(), err))
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("%s: unexpected argument %q", fs.Name(), fs.Arg(0)))
	}
	var bad error
	fs.VisitAll(func(f *flag.Flag) {
		max, ok := countFlags[f.Name]
		n, isInt := f.Value.(flag.Getter).Get().(int)
		switch {
		case bad != nil || !ok || !isInt:
		case n < 1:
			bad = usageError(fmt.Sprintf("%s -%s %d: want at least 1", fs.Name(), f.Name, n))
		case n > max:
			bad = usageError(fmt.Sprintf("%s -%s %d: want at most %d", fs.Name(), f.Name, n, max))
		}
	})
	return bad
}

// flagError is the usageError for a value of fs's flag name that err
// rejects after parsing.
func flagError(fs *flag.FlagSet, name string, err error) error {
	return usageError(fmt.Sprintf("%s -%s %v", fs.Name(), name, err))
}

func dispatch(name string, args []string) error {
	for _, c := range commands() {
		if c.name == name {
			return c.run(args)
		}
	}
	return usageError(fmt.Sprintf("unknown command %q", name))
}

func cmdHelp(args []string) error {
	if err := parseFlags(flag.NewFlagSet("help", flag.ContinueOnError), args); err != nil {
		return err
	}
	usage(os.Stderr)
	return nil
}

func cmdAll(args []string) error {
	if err := parseFlags(flag.NewFlagSet("all", flag.ContinueOnError), args); err != nil {
		return err
	}
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
  -telemetry-out FILE  write the final telemetry snapshot as JSON on exit
                    (engine counters plus per-detector stats, cascade
                    stages and lock mode rows included; checked by
                    scripts/tracecheck)

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
			return nil, fmt.Errorf("%q: want comma-separated counts of at least 1", s)
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
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	run := fs.String("run", "", "regexp selecting benchmarks to run (default all)")
	quiet := fs.Bool("q", false, "run the rows without printing the table")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var filter *regexp.Regexp
	if *run != "" {
		var err error
		if filter, err = regexp.Compile(*run); err != nil {
			return flagError(fs, "run", err)
		}
	}
	table := io.Writer(os.Stdout)
	if *quiet {
		table = nil
	}
	if bench.RunMicros(filter, table) == 0 {
		return fmt.Errorf("no benchmarks match %q", *run)
	}
	return nil
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
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	sz := table1Sizes
	addSizeFlags(fs, &sz)
	if err := parseFlags(fs, args); err != nil {
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
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	cfg := bench.DefaultTable2()
	fs.IntVar(&cfg.Ops, "ops", cfg.Ops, "operations (paper: 1000000)")
	fs.IntVar(&cfg.Classes, "classes", cfg.Classes, "equivalence classes (paper: 10)")
	fs.IntVar(&cfg.Threads, "threads", cfg.Threads, "overlap window / threads (paper: 4)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "stream seed")
	stats := fs.Bool("stats", false, "print gatekeeper work counters (probes, collisions, fallbacks)")
	if err := parseFlags(fs, args); err != nil {
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
		fs := flag.NewFlagSet(fmt.Sprintf("fig%d", n), flag.ContinueOnError)
		threadList := fs.String("threads", "1,2,4,8", "comma-separated thread counts")
		sz := figSizes
		addSizeFlags(fs, &sz)
		if err := parseFlags(fs, args); err != nil {
			return err
		}
		threads, err := parseThreads(*threadList)
		if err != nil {
			return flagError(fs, "threads", err)
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

func cmdModel(args []string) error {
	fs := flag.NewFlagSet("model", flag.ContinueOnError)
	appName := fs.String("app", "Preflow-push", "Preflow-push | Boruvka | Clustering")
	procs := fs.String("procs", "1,2,4,8,64,1024", "processor counts")
	sz := table1Sizes
	addSizeFlags(fs, &sz)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ps, err := parseThreads(*procs)
	if err != nil {
		return flagError(fs, "procs", err)
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

// cmdSpecs prints each point of apps.Specs with its move, class and
// conditions, the lock matrices of each one Synthesize accepts, and the
// SIMPLE strengthening of each non-SIMPLE top with the ≤ check.
func cmdSpecs(args []string) error {
	fs := flag.NewFlagSet("specs", flag.ContinueOnError)
	var adts []string
	for _, p := range apps.Specs() {
		if !slices.Contains(adts, p.ADT) {
			adts = append(adts, p.ADT)
		}
	}
	adt := fs.String("adt", "", "print only this ADT's points: "+strings.Join(adts, " | "))
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *adt != "" && !slices.Contains(adts, *adt) {
		return flagError(fs, "adt", fmt.Errorf("%q: want %s", *adt, strings.Join(adts, ", ")))
	}
	for _, p := range apps.Specs() {
		if *adt != "" && p.ADT != *adt {
			continue
		}
		spec := p.Spec()
		from := "hand-written"
		if p.Parent != "" {
			from = p.Move.Name + " of " + p.Parent
		}
		fmt.Printf("=== %s/%s: %s (%s)\n%s\n", p.ADT, p.Name, from, spec.Classify(), spec)
		printMatrices(spec)
		if p.Parent == "" && spec.Classify() != core.ClassSimple {
			simple := core.StrengthenToSimple(spec)
			fmt.Printf("strongest SIMPLE specification below it (§4.1):\n%s\n", simple)
			fmt.Printf("ordering check: strengthened ≤ original: %v\n\n", simple.LE(spec))
			printMatrices(simple)
		}
	}
	return nil
}

// printMatrices prints the full and reduced compatibility matrices of
// spec's synthesized scheme, or nothing when no abstract-locking scheme
// implements spec (Theorem 1).
func printMatrices(spec *core.Spec) {
	scheme, err := abslock.Synthesize(spec)
	if err != nil {
		return
	}
	fmt.Println("full compatibility matrix (figure 8a):")
	fmt.Println(scheme.MatrixString())
	fmt.Println("reduced compatibility matrix (figure 8b):")
	fmt.Println(scheme.Reduce().MatrixString())
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	file := fs.String("file", "", "specification file (see internal/spectext); - for stdin")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *file == "" {
		return flagError(fs, "file", fmt.Errorf("%q: want a specification file, or - for stdin", *file))
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
		fmt.Println("SIMPLE: implementable by synthesized abstract locks (§3.2).")
	case core.ClassOnline:
		fmt.Println("ONLINE-CHECKABLE: implementable by a forward gatekeeper (§3.3.1).")
	default:
		fmt.Println("GENERAL: requires a general gatekeeper (§3.3.2).")
	}
	printMatrices(spec)
	if spec.Classify() != core.ClassSimple {
		fmt.Println("\nstrongest SIMPLE specification below it (§4.1):")
		fmt.Print(spectext.Format(core.StrengthenToSimple(spec)))
	}
	return nil
}
