package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"commlat/internal/adt/flowgraph"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/apps/boruvka"
	"commlat/internal/apps/cluster"
	"commlat/internal/apps/preflow"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
	"commlat/internal/workload"
)

// cmdTrace runs one application with the telemetry event trace enabled
// and writes the transaction timeline (Chrome trace_event JSON and/or
// JSONL) plus the per-method-pair conflict attribution table.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	sz := addAppFlags(fs)
	out := fs.String("o", "trace.json", "Chrome trace_event output path (- for stdout)")
	jsonlPath := fs.String("jsonl", "", "also write the event trace as JSONL to this path")
	jsonMode := fs.Bool("json", false, "write JSONL events to stdout and the attribution table to stderr (skips the Chrome file unless -o is given explicitly)")
	sample := fs.Int("sample", 1, "keep every Nth transaction's events (conflict decisions are never sampled out)")
	buf := fs.Int("buf", 1<<14, "per-worker ring capacity in events (rounded up to a power of two)")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicitOut := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "o" {
			explicitOut = true
		}
	})

	telemetry.EnableTrace(*buf, *sample)
	defer telemetry.DisableTrace()

	if err := prof.start(); err != nil {
		return err
	}
	summary, err := runTraced(sz)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}

	evs := telemetry.TraceEvents()
	snap := telemetry.Default.Snapshot()

	report := io.Writer(os.Stdout)
	if *jsonMode {
		report = os.Stderr
		if err := telemetry.Default.WriteJSONL(os.Stdout, evs); err != nil {
			return err
		}
	}
	if !*jsonMode || explicitOut {
		if err := writeChrome(*out, evs); err != nil {
			return err
		}
		fmt.Fprintf(report, "wrote %d events to %s (chrome://tracing, perfetto.dev)\n", len(evs), *out)
	}
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			return err
		}
		if err := telemetry.Default.WriteJSONL(f, evs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(report, "wrote %d events to %s (JSONL)\n", len(evs), *jsonlPath)
	}
	if dropped := telemetry.TraceDropped(); dropped > 0 {
		fmt.Fprintf(report, "ring overwrote %d events; raise -buf to keep the full run\n", dropped)
	}
	fmt.Fprintln(report)
	fmt.Fprintln(report, summary)
	fmt.Fprintln(report)
	fmt.Fprint(report, telemetry.FormatAttribution(snap))
	return nil
}

// traceSizes is the app, detector and input-size selection trace and
// flightrec share.
type traceSizes struct {
	app, detector                            string
	threads, mesh, rmfa, rmfb, parts, points int
	seed                                     int64
}

// addAppFlags registers the selection's flags on fs; the returned value
// is filled in by fs.Parse.
func addAppFlags(fs *flag.FlagSet) *traceSizes {
	sz := &traceSizes{}
	fs.StringVar(&sz.app, "app", "boruvka", "boruvka | preflow | cluster")
	fs.StringVar(&sz.detector, "detector", "", "detector variant (boruvka: gk|generic|ml; preflow: rw|ex|part; cluster: gk|ml); default is the app's gatekept variant")
	fs.IntVar(&sz.threads, "threads", 4, "worker goroutines")
	fs.IntVar(&sz.mesh, "mesh", 16, "Boruvka mesh side")
	fs.IntVar(&sz.rmfa, "rmfa", 6, "GENRMF frame side (preflow)")
	fs.IntVar(&sz.rmfb, "rmfb", 6, "GENRMF frame count (preflow)")
	fs.IntVar(&sz.parts, "parts", 32, "preflow partitions (detector=part)")
	fs.IntVar(&sz.points, "points", 400, "clustering points")
	fs.Int64Var(&sz.seed, "seed", 1, "generator seed")
	return sz
}

func fmtStats(st engine.Stats) string {
	return fmt.Sprintf("committed %d, aborts %d (%.2f%%), elapsed %v, busy %v",
		st.Committed, st.Aborts, st.AbortRatio()*100, st.Elapsed, st.Busy)
}

// runTraced builds the requested app/detector pair and runs it under the
// already-enabled trace, returning a one-line human summary.
func runTraced(sz *traceSizes) (string, error) {
	opts := engine.Options{Workers: sz.threads, Seed: sz.seed}
	switch sz.app {
	case "boruvka":
		nodes, edges := workload.Mesh(sz.mesh, sz.mesh, sz.seed)
		var uf unionfind.Sets
		switch sz.detector {
		case "", "gk":
			uf = unionfind.NewGK(nodes)
		case "generic":
			uf = unionfind.NewGeneric(nodes)
		case "ml":
			uf = unionfind.NewML(nodes)
		default:
			return "", fmt.Errorf("trace: unknown boruvka detector %q (gk|generic|ml)", sz.detector)
		}
		res, err := boruvka.Run(uf, nodes, edges, opts)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("boruvka: mesh %dx%d, MST weight %.0f over %d edges; %s",
			sz.mesh, sz.mesh, res.Weight, res.Edges, fmtStats(res.Stats)), nil
	case "preflow":
		net := workload.GenRMF(sz.rmfa, sz.rmfb, 1, 1000, sz.seed)
		var g *flowgraph.Graph
		switch sz.detector {
		case "", "rw":
			g = flowgraph.NewRW(net)
		case "ex":
			g = flowgraph.NewExclusive(net)
		case "part":
			g = flowgraph.NewPartitioned(net, sz.parts)
		default:
			return "", fmt.Errorf("trace: unknown preflow detector %q (rw|ex|part)", sz.detector)
		}
		flow, stats, err := preflow.Run(g, opts)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("preflow: genrmf %dx%d, max flow %d; %s",
			sz.rmfa, sz.rmfb, flow, fmtStats(stats)), nil
	case "cluster":
		pts := workload.RandomPoints(sz.points, 1000, sz.seed)
		var idx kdtree.Index
		switch sz.detector {
		case "", "gk":
			idx = kdtree.NewGK()
		case "ml":
			idx = kdtree.NewML()
		default:
			return "", fmt.Errorf("trace: unknown cluster detector %q (gk|ml)", sz.detector)
		}
		_, res, err := cluster.Run(idx, pts, opts)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("cluster: %d points, %d merges; %s",
			sz.points, res.Merges, fmtStats(res.Stats)), nil
	default:
		return "", fmt.Errorf("trace: unknown app %q (boruvka|preflow|cluster)", sz.app)
	}
}

func writeChrome(path string, evs []telemetry.Event) error {
	if path == "-" {
		return telemetry.Default.WriteChromeTrace(os.Stdout, evs)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.Default.WriteChromeTrace(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
