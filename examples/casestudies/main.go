// Casestudies: the paper's three case studies (§5) — preflow-push on a
// GENRMF network, Borůvka's algorithm on a random mesh, agglomerative
// clustering of random points — as one loop over the catalogue of
// app × lattice point (internal/apps). Each app is solved sequentially
// and then speculatively under every variant the catalogue lists for it,
// reporting the answer against the sequential one, the abort statistics
// and the ParaMeter parallelism profile.
package main

import (
	"flag"
	"fmt"
	"os"

	"commlat/internal/apps"
	"commlat/internal/engine"
)

func main() {
	sz := apps.Sizes{RMFa: 6, RMFb: 6, Mesh: 40, Points: 1000, Parts: 32, Seed: 1}
	only := flag.String("app", "", "preflow | boruvka | cluster (default: all three)")
	workers := flag.Int("workers", 4, "speculative workers")
	flag.IntVar(&sz.RMFa, "rmfa", sz.RMFa, "GENRMF frame side")
	flag.IntVar(&sz.RMFb, "rmfb", sz.RMFb, "GENRMF frame count")
	flag.IntVar(&sz.Mesh, "mesh", sz.Mesh, "mesh side (paper: 1000)")
	flag.IntVar(&sz.Points, "points", sz.Points, "points to cluster (paper: 100k profile, 500k timing)")
	flag.Int64Var(&sz.Seed, "seed", sz.Seed, "generator seed")
	flag.Parse()

	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "casestudies:", err)
			os.Exit(1)
		}
	}
	for _, app := range apps.Catalogue(sz) {
		if *only != "" && *only != app.Key {
			continue
		}
		want, wall := app.Sequential()
		fmt.Printf("%s, %s: sequential %s in %v\n", app.Title, app.Input, want, wall.Round(1e6))
		for _, v := range app.Variants {
			s, err := v.Run(engine.Options{Workers: *workers})
			check(err)
			status := "OK"
			if s.Answer != want {
				status = "MISMATCH"
			}
			fmt.Printf("  %-10s %s  commits=%d aborts=%d (%.1f%%)  %v  [%s]\n", v.Name, s.Answer,
				s.Stats.Committed, s.Stats.Aborts, s.Stats.AbortRatio()*100, s.Wall.Round(1e6), status)
			prof, err := v.Profile()
			check(err)
			fmt.Printf("  %-10s critical path=%d  avg parallelism=%.2f\n", "", prof.CriticalPath, prof.AvgParallelism)
		}
	}
}
