// Command benchmark is the repository's yardstick: it drives the three
// paper applications and the set workload through their public entry
// points, verifies every result, and prints every metric by name with
// its unit. BENCHMARK.json at the repository root is its contract;
// README.md here says what each number means.
//
//	go run . -workload preflow-ml -seed 1 -seconds 14 -trace 0   (end-to-end metrics)
//	go run . -workload preflow-ml -seed 1 -seconds 14 -trace 1   (per-layer metrics)
//	go run . -out results.json                                  (every workload)
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"time"
)

// runRecord is one workload run as written to -out and read by -compare.
type runRecord struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Trace     int             `json:"trace"`
	Seconds   float64         `json:"seconds"`
	Quick     bool            `json:"quick,omitempty"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Problems  []string        `json:"problems,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
}

// resultsFile is the -out format. Runs accumulate: writing to a file
// that exists appends, so the alternating runs of an A/B comparison
// collect in one file per side.
type resultsFile struct {
	Env  map[string]string `json:"env"`
	Runs []runRecord       `json:"runs"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "", "workload to run (default: every enabled one)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 14, "time budget of one workload's measurements")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	repsFlag := flag.Int("reps", 0, "timed repetitions per mode, in place of the time budget")
	quick := flag.Bool("quick", false, "smoke-test input sizes")
	out := flag.String("out", "", "append the run to this results file")
	spans := flag.String("spans", "", "with -trace 1: write the traced pass's spans to this file")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two results files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		flag.Usage()
		return errors.New("bad arguments")
	}

	// Closed loop, one process, at most two workers on at most two CPUs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	st, err := parseSuite(workloadsJSON)
	if err != nil {
		return err
	}
	todo, err := st.enabled(*workload)
	if err != nil {
		return err
	}
	failed := 0
	var records []runRecord
	for _, w := range todo {
		r := &runner{cfg: w, sz: w.Size, profSz: w.Profile, seed: *seed,
			budget: time.Duration(*seconds * float64(time.Second)), reps: *repsFlag, spans: *spans}
		if *quick {
			r.sz, r.profSz = w.Quick, w.Quick
		}
		rec := r.record(*trace)
		rec.Seconds, rec.Quick = *seconds, *quick
		records = append(records, rec)
		failed += rec.Failed
	}
	if *out != "" {
		if err := appendRuns(*out, records); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// record runs one pass over the workload and prints it: a table for
// people, then one line of JSON for the driver.
func (r *runner) record(trace int) runRecord {
	var res *results
	want := endToEnd
	if trace == 1 {
		res = r.layers()
		want = contractLayers()
	} else {
		res = r.endToEnd()
	}
	fmt.Printf("%s  seed %d  trace %d  (%s)\n%s", r.cfg.Name, r.seed, trace, r.cfg.Why, res.table())
	for _, p := range r.problems {
		fmt.Println(" ", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range want {
		if s, ok := res.byKey[m.Name]; ok {
			line.Metrics[m.Name] = value{s.Value, s.Unit}
		} else if r.failed == 0 {
			// Every workload owes every contract metric.
			r.count("report", fmt.Errorf("metric %s was not measured", m.Name))
			line.Correct, line.Failed = false, r.failed
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only a NaN or an infinity can do this, and both are bugs
	}
	fmt.Printf("%s\n", b)
	return runRecord{Workload: r.cfg.Name, Seed: r.seed, Trace: trace,
		Attempted: r.attempted, Failed: r.failed, Problems: r.problems, Metrics: res.byKey}
}

// environment records where the numbers were taken.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendRuns(path string, runs []runRecord) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f = &resultsFile{}
	} else if err != nil {
		return err
	}
	f.Env = environment()
	f.Runs = append(f.Runs, runs...)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
