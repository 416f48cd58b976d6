// Package bench is the experiment harness: the paper's evaluation (§5)
// computed from three tables. Table 1, figures 10–12 and the
// T·o/min(a,p) model are loops over apps.Catalogue (Table1, Fig, and
// ModelFromTable1 over Table 1's rows, not a second measurement); Table 2
// is a loop over Table2Schemes; the detector micro-benchmarks are the
// rows of Micros. cmd/commlat exposes each as a subcommand and the root
// bench_test.go ranges over the same tables under `go test -bench`.
//
// Absolute numbers differ from the paper's (different machine, runtime
// and scale — see EXPERIMENTS.md); the quantities compared and the
// expected *shape* of each result are the paper's.
package bench

import (
	"fmt"
	"time"

	"commlat/internal/apps"
	"commlat/internal/engine"
)

// median3 runs f three times and returns the median duration, for less
// noisy single-shot measurements.
func median3(f func() time.Duration) time.Duration {
	a, b, c := f(), f(), f()
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// sequentialTime is the median of three unguarded solves: Table 1's T
// and the figures' serial baseline.
func sequentialTime(app apps.App) time.Duration {
	return median3(func() time.Duration {
		_, d := app.Sequential()
		return d
	})
}

// solveTime is the median of three guarded solves of app under v at the
// given worker count, each on a fresh structure.
func solveTime(app apps.App, v apps.Variant, workers int) (time.Duration, error) {
	var runErr error
	d := median3(func() time.Duration {
		s, err := v.Run(engine.Options{Workers: workers})
		if err != nil {
			runErr = err
		}
		return s.Wall
	})
	if runErr != nil {
		return 0, fmt.Errorf("%s/%s: %w", app.Key, v.Name, runErr)
	}
	return d, nil
}
