package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// MicroResult is one detector micro-benchmark's measurement, as emitted
// into BENCH_fresh.json and consumed by the allocation-regression
// gate (scripts/allocgate).
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// MicroReport is the BENCH_fresh.json document.
type MicroReport struct {
	GoOS       string        `json:"goos"`
	GoArch     string        `json:"goarch"`
	GoVersion  string        `json:"go_version"`
	Benchmarks []MicroResult `json:"benchmarks"`
}

// RunMicros measures every detector micro-benchmark whose name matches
// filter (nil means all) with testing.Benchmark, reporting progress on
// progress when non-nil. AllocsPerOp/BytesPerOp are steady-state
// figures: testing.Benchmark's final run dominates the count, so one-off
// warmup allocations (pool fills, map growth) amortize to zero.
func RunMicros(filter *regexp.Regexp, progress io.Writer) []MicroResult {
	var out []MicroResult
	for _, m := range Micros() {
		if filter != nil && !filter.MatchString(m.Name) {
			continue
		}
		r := testing.Benchmark(m.F)
		res := MicroResult{
			Name:        m.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		out = append(out, res)
		if progress != nil {
			fmt.Fprintf(progress, "%-44s %12d ops %12.1f ns/op %8d B/op %6d allocs/op\n",
				res.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
	}
	return out
}

// WriteJSON renders results as the BENCH_fresh.json document, indented.
func WriteJSON(w io.Writer, results []MicroResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(MicroReport{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Benchmarks: results,
	})
}

// Budget is the checked-in allocation budget (BENCH_budget.json): for
// each benchmark name, the maximum allocs/op CI tolerates. Benchmarks
// absent from the budget are unconstrained.
type Budget map[string]int64

// CheckBudget compares results against the budget, returning one line
// per violation (empty means the gate passes) and an error naming
// budgeted benchmarks that were not measured.
func CheckBudget(results []MicroResult, budget Budget) ([]string, error) {
	measured := map[string]MicroResult{}
	for _, r := range results {
		measured[r.Name] = r
	}
	names := make([]string, 0, len(budget))
	for name := range budget {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations, missing []string
	for _, name := range names {
		max := budget[name]
		r, ok := measured[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if r.AllocsPerOp > max {
			violations = append(violations,
				fmt.Sprintf("%s: %d allocs/op exceeds budget %d", name, r.AllocsPerOp, max))
		}
	}
	if len(missing) > 0 {
		return violations, fmt.Errorf("budgeted benchmarks not measured: %s", strings.Join(missing, ", "))
	}
	return violations, nil
}
