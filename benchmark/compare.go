package main

import (
	"fmt"
	"io"
	"sort"
)

// side summarises one commit's runs of one metric on one workload.
type side struct {
	median, lo, hi float64
	n              int
}

// summarise takes the median of the runs' values. The spread is the
// distance between the quartiles when there are enough runs to have
// them, the range of the runs when there are two or three, and the range
// of the repetitions inside the run when there is only one.
func summarise(runs []stat) side {
	vals := make([]float64, len(runs))
	for i, s := range runs {
		vals[i] = s.Value
	}
	sort.Float64s(vals)
	s := side{median: median(vals), lo: vals[0], hi: vals[len(vals)-1], n: len(vals)}
	switch {
	case len(vals) == 1:
		s.lo, s.hi = runs[0].Min, runs[0].Max
	case len(vals) >= 4:
		s.lo, s.hi = quantile(vals, 0.25), quantile(vals, 0.75)
	}
	return s
}

func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.hi - s.lo) / s.median
}

// verdict applies the benchmark's rule to one metric on one workload:
// b is worse when its median is worse than a's by more than the bound;
// where either side's own spread is wider than the bound the runs cannot
// tell, and the pair is unresolved, not unchanged.
func verdict(m metric, a, b side) (delta float64, v string) {
	if a.median != 0 {
		delta = (b.median - a.median) / a.median
	}
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	switch {
	case a.spread() > m.Bound || b.spread() > m.Bound:
		v = "unresolved"
	case worse > m.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return delta, v
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change, the bound and the verdict. It fails when any pair
// is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var sides [2]map[string]map[string][]stat // workload → metric → one stat per run
	var order []string
	for i, path := range []string{pathA, pathB} {
		f, err := readResults(path)
		if err != nil {
			return err
		}
		sides[i] = map[string]map[string][]stat{}
		for _, run := range f.Runs {
			if run.Trace != 0 {
				continue
			}
			if sides[i][run.Workload] == nil {
				sides[i][run.Workload] = map[string][]stat{}
				if i == 0 {
					order = append(order, run.Workload)
				}
			}
			for name, s := range run.Metrics {
				sides[i][run.Workload][name] = append(sides[i][run.Workload][name], s)
			}
		}
	}
	fmt.Fprintf(w, "%-14s %-18s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "unit", "a", "b", "change", "bound", "verdict")
	worse := 0
	for _, wl := range order {
		for _, m := range endToEnd {
			ra, rb := sides[0][wl][m.Name], sides[1][wl][m.Name]
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			a, b := summarise(ra), summarise(rb)
			delta, v := verdict(m, a, b)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-18s %-12s %12.6g %12.6g %+7.1f%% %5.0f%%  %s (n %d, %d)\n",
				wl, m.Name, m.Unit, a.median, b.median, 100*delta, 100*m.Bound, v, a.n, b.n)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs are worse than the bound allows", worse)
	}
	return nil
}
