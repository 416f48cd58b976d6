package bench

import (
	"fmt"
	"strings"
)

// ModelEntry is one conflict-detection scheme in the §5 performance
// model: T·o is its single-threaded run time, T·o/min(a, p) its
// best-case parallel run time on p processors with perfect load balance.
type ModelEntry struct {
	Name        string
	Overhead    float64 // o: single-thread slowdown over sequential
	Parallelism float64 // a: average parallelism the scheme exposes
}

// PredictedTime returns the model's best-case run time on p processors,
// relative to the sequential time T = 1.
func (e ModelEntry) PredictedTime(p int) float64 {
	a := e.Parallelism
	if float64(p) < a {
		a = float64(p)
	}
	if a < 1 {
		a = 1
	}
	return e.Overhead / a
}

// SelectScheme applies the paper's selection rule: pick the scheme with
// the smallest predicted o/min(a, p). It returns the winner's index.
// Ties go to the earlier (lower-overhead, by convention) entry.
func SelectScheme(entries []ModelEntry, p int) int {
	best := 0
	for i := 1; i < len(entries); i++ {
		if entries[i].PredictedTime(p) < entries[best].PredictedTime(p) {
			best = i
		}
	}
	return best
}

// FormatModel renders predicted times for a processor sweep, flagging
// the winner per processor count — the "putting it all together"
// discussion of §5.
func FormatModel(entries []ModelEntry, procs []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %12s", "scheme", "overhead", "parallelism")
	for _, p := range procs {
		fmt.Fprintf(&b, "  T@p=%-4d", p)
	}
	b.WriteByte('\n')
	for i, e := range entries {
		fmt.Fprintf(&b, "%-12s %9.2f %12.2f", e.Name, e.Overhead, e.Parallelism)
		for _, p := range procs {
			mark := " "
			if SelectScheme(entries, p) == i {
				mark = "*"
			}
			fmt.Fprintf(&b, " %7.3f%s", e.PredictedTime(p), mark)
		}
		b.WriteByte('\n')
	}
	b.WriteString("(* = model's pick at that processor count)\n")
	return b.String()
}

// ModelFromTable1 converts Table 1 rows of one application into model
// entries.
func ModelFromTable1(rows []Table1Row, app string) []ModelEntry {
	var out []ModelEntry
	for _, r := range rows {
		if r.App == app {
			out = append(out, ModelEntry{Name: r.Variant, Overhead: r.Overhead, Parallelism: r.Parallelism})
		}
	}
	return out
}
