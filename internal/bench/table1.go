package bench

import (
	"fmt"
	"strings"

	"commlat/internal/apps"
)

// Table1Row is one line of Table 1: an application/variant pair with its
// ParaMeter-style critical path length, average parallelism, and
// conflict-detection overhead (single-threaded guarded time over plain
// sequential time).
type Table1Row struct {
	App         string
	Variant     string
	PathLength  int
	Parallelism float64
	Overhead    float64
}

// Table1 reproduces Table 1: critical path lengths, average parallelism
// and overheads for every reported variant of every app of the catalogue
// — preflow-push (part, ex, ml), Borůvka (uf-ml, uf-gk) and clustering
// (kd-ml, kd-gk) under apps.Catalogue.
func Table1(cat []apps.App) ([]Table1Row, error) {
	var rows []Table1Row
	for _, app := range cat {
		seq := sequentialTime(app)
		for _, v := range app.Reported() {
			prof, err := v.Profile()
			if err != nil {
				return nil, fmt.Errorf("%s/%s profile: %w", app.Key, v.Name, err)
			}
			t1, err := solveTime(app, v, 1)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table1Row{
				App: app.Title, Variant: v.Name,
				PathLength:  prof.CriticalPath,
				Parallelism: prof.AvgParallelism,
				Overhead:    float64(t1) / float64(seq),
			})
		}
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's column layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-8s %12s %12s %9s\n", "Application", "Variant", "Path length", "Parallelism", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-8s %12d %12.2f %9.2f\n", r.App, r.Variant, r.PathLength, r.Parallelism, r.Overhead)
	}
	return b.String()
}
