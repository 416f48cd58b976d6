// Command allocgate is the CI allocation-regression gate: it compares a
// BENCH_fresh.json report (written by `commlat bench -json`) against
// the checked-in allocation budget BENCH_budget.json and exits non-zero
// if any budgeted benchmark allocates more per operation than allowed.
//
// The budgeted benchmarks are the detector fast paths the tagged value
// representation made allocation-free; a violation means a change
// reintroduced boxing or per-operation garbage on a hot path. Raise a
// budget only deliberately, in the same change that explains why.
//
// Usage (as CI runs it):
//
//	go run ./cmd/commlat bench -json -q -o BENCH_fresh.json
//	go run ./scripts/allocgate -report BENCH_fresh.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"commlat/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		for _, line := range strings.Split(err.Error(), "\n") {
			fmt.Fprintln(os.Stderr, "allocgate:", line)
		}
		os.Exit(1)
	}
}

// run is the command: it returns one error line per budget violation,
// and one naming the budgeted benchmarks the report lacks.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("allocgate", flag.ContinueOnError)
	report := fs.String("report", "BENCH_fresh.json", "benchmark report from `commlat bench -json`")
	budgetPath := fs.String("budget", "BENCH_budget.json", "allocation budget (benchmark name -> max allocs/op)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var rep bench.MicroReport
	if err := readJSON(*report, &rep); err != nil {
		return err
	}
	var budget bench.Budget
	if err := readJSON(*budgetPath, &budget); err != nil {
		return err
	}
	violations, err := bench.CheckBudget(rep.Benchmarks, budget)
	var errs []error
	for _, v := range violations {
		errs = append(errs, fmt.Errorf("FAIL: %s", v))
	}
	if err := errors.Join(append(errs, err)...); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "allocgate: %d budgeted benchmarks within budget\n", len(budget))
	return nil
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
