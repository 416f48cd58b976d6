// Command benchdiff is the CI timing-regression gate: it compares a
// freshly measured benchmark report (`commlat bench -json -o
// BENCH_fresh.json`) against the committed baseline BENCH_detectors.json
// and exits non-zero if any benchmark present in both slowed down by
// more than the tolerance.
//
// The tolerance is deliberately loose (15% plus an absolute floor) —
// shared CI runners are noisy — so a failure means a real regression on
// a detector hot path, not jitter. Benchmarks only in the fresh report
// (newly added) are reported but never fail the gate; refresh the
// baseline in the change that adds them. Benchmarks only in the
// baseline (renamed or removed
// without a baseline refresh) DO fail the gate — a silently vanished
// benchmark is indistinguishable from an unmeasured regression. Pass
// -allow-missing in the change that intentionally retires one.
//
// Usage (as CI runs it):
//
//	go run ./cmd/commlat bench -json -q -o BENCH_fresh.json
//	go run ./scripts/benchdiff -base BENCH_detectors.json -fresh BENCH_fresh.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"commlat/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		for _, line := range strings.Split(err.Error(), "\n") {
			fmt.Fprintln(os.Stderr, "benchdiff:", line)
		}
		os.Exit(1)
	}
}

// run is the command: it writes the per-benchmark report to stdout and
// returns one error line per failed benchmark.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	basePath := fs.String("base", "BENCH_detectors.json", "committed baseline report")
	freshPath := fs.String("fresh", "BENCH_fresh.json", "freshly measured report from `commlat bench -json`")
	tolerance := fs.Float64("tolerance", 0.15, "allowed fractional ns/op increase before failing")
	floor := fs.Float64("floor", 25, "absolute ns/op increase always tolerated (noise floor)")
	allowMissing := fs.Bool("allow-missing", false, "tolerate baseline benchmarks absent from the fresh report (intentional rename/removal)")
	commvetPath := fs.String("commvet", "", "commvet -json report; its analyzer-suite runtime is printed as an informational line (never gates)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *commvetPath != "" {
		reportCommvetRuntime(stdout, *commvetPath)
	}

	var base, fresh bench.MicroReport
	if err := readJSON(*basePath, &base); err != nil {
		return err
	}
	if err := readJSON(*freshPath, &fresh); err != nil {
		return err
	}

	baseline := map[string]bench.MicroResult{}
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	seen := map[string]bool{}
	var regressions []error
	logSum, logN := 0.0, 0
	for _, f := range fresh.Benchmarks {
		seen[f.Name] = true
		b, ok := baseline[f.Name]
		if !ok {
			fmt.Fprintf(stdout, "benchdiff: new benchmark %s (%.1f ns/op), no baseline\n", f.Name, f.NsPerOp)
			continue
		}
		if b.NsPerOp > 0 && f.NsPerOp > 0 {
			logSum += math.Log(f.NsPerOp / b.NsPerOp)
			logN++
		}
		limit := b.NsPerOp*(1+*tolerance) + *floor
		switch {
		case f.NsPerOp > limit:
			regressions = append(regressions, fmt.Errorf(
				"FAIL: %s: %.1f ns/op vs baseline %.1f ns/op (+%.1f%%, limit %.1f)",
				f.Name, f.NsPerOp, b.NsPerOp, 100*(f.NsPerOp-b.NsPerOp)/b.NsPerOp, limit))
		default:
			fmt.Fprintf(stdout, "benchdiff: ok   %-44s %10.1f ns/op (baseline %10.1f)\n", f.Name, f.NsPerOp, b.NsPerOp)
		}
	}
	var stale []string
	for name := range baseline {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		b := baseline[name]
		if *allowMissing {
			fmt.Fprintf(stdout, "benchdiff: note: baseline benchmark %s (%.1f ns/op) not in fresh report, tolerated by -allow-missing\n",
				name, b.NsPerOp)
			continue
		}
		regressions = append(regressions, fmt.Errorf(
			"FAIL: %s: in baseline (%.1f ns/op) but missing from fresh report — renamed or removed without refreshing the baseline? (rerun with -allow-missing if intentional)",
			name, b.NsPerOp))
	}
	if logN > 0 {
		// One line for sweep-wide drift: a geomean creeping up while every
		// row stays inside its individual tolerance is still a regression
		// worth noticing.
		geomean := math.Exp(logSum / float64(logN))
		fmt.Fprintf(stdout, "benchdiff: geomean fresh/baseline over %d shared benchmarks: %.3f (%+.1f%%)\n",
			logN, geomean, 100*(geomean-1))
	}
	if len(regressions) > 0 {
		return errors.Join(regressions...)
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmarks within %.0f%% of baseline\n", len(seen), 100**tolerance)
	return nil
}

// reportCommvetRuntime prints the static-analysis suite's wall-clock
// time from a commvet -json report, so the bench job's log tracks how
// long the vet stage costs alongside the benchmark rows. Informational
// only: a missing or unreadable report is noted, never a failure.
func reportCommvetRuntime(stdout io.Writer, path string) {
	var rep struct {
		ElapsedNS int64 `json:"elapsed_ns"`
		Packages  int   `json:"go_packages"`
		SpecFiles int   `json:"spec_files"`
	}
	if err := readJSON(path, &rep); err != nil {
		fmt.Fprintf(stdout, "benchdiff: note: commvet report unavailable (%v)\n", err)
		return
	}
	fmt.Fprintf(stdout, "benchdiff: info: commvet analyzed %d packages + %d spec files in %.2fs\n",
		rep.Packages, rep.SpecFiles, float64(rep.ElapsedNS)/1e9)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
