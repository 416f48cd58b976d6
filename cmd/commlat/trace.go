package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"commlat/internal/apps"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// cmdTrace runs one application with the telemetry event trace enabled
// and writes the transaction timeline (Chrome trace_event JSON and/or
// JSONL) plus the per-method-pair conflict attribution table.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	sz := addAppFlags(fs)
	out := fs.String("o", "", "Chrome trace_event output path (- for stdout; default trace.json, or none under -json)")
	jsonlPath := fs.String("jsonl", "", "also write the event trace as JSONL to this path")
	jsonMode := fs.Bool("json", false, "write JSONL events to stdout and the attribution table to stderr (no Chrome file unless -o is given)")
	sample := fs.Int("sample", 1, "keep every Nth transaction's events (conflict decisions are never sampled out)")
	buf := fs.Int("buf", 1<<14, "per-worker ring capacity in events (rounded up to a power of two)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" && !*jsonMode {
		*out = "trace.json"
	}

	telemetry.EnableTrace(*buf, *sample)
	defer telemetry.DisableTrace()

	summary, err := runTraced(sz)
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
	if *out != "" {
		if err := writeTo(*out, func(w io.Writer) error { return telemetry.Default.WriteChromeTrace(w, evs) }); err != nil {
			return err
		}
		fmt.Fprintf(report, "wrote %d events to %s (chrome://tracing, perfetto.dev)\n", len(evs), *out)
	}
	if err := writeTo(*jsonlPath, func(w io.Writer) error { return telemetry.Default.WriteJSONL(w, evs) }); err != nil {
		return err
	}
	if *jsonlPath != "" {
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

// appRun is the app, variant, worker-count and input-size selection
// trace and flightrec share.
type appRun struct {
	app, detector string
	threads       int
	sizes         apps.Sizes
}

// addAppFlags registers the selection's flags on fs; the returned value
// is filled in by fs.Parse.
func addAppFlags(fs *flag.FlagSet) *appRun {
	r := &appRun{sizes: traceSizes}
	fs.StringVar(&r.app, "app", "boruvka", "boruvka | preflow | cluster")
	fs.StringVar(&r.detector, "detector", "", "variant, by Table 1's name (preflow: part|ex|ml; boruvka: uf-ml|uf-gk|uf-generic; cluster: kd-ml|kd-gk); default is the app's highest reported lattice point")
	fs.IntVar(&r.threads, "threads", 4, "worker goroutines")
	addSizeFlags(fs, &r.sizes)
	return r
}

// runTraced looks the selected app and variant up in the catalogue and
// runs them under the already-enabled recorders, returning a one-line
// human summary.
func runTraced(r *appRun) (string, error) {
	app, err := apps.Lookup(apps.Catalogue(r.sizes), r.app)
	if err != nil {
		return "", err
	}
	v, err := app.Variant(r.detector)
	if err != nil {
		return "", err
	}
	s, err := v.Run(engine.Options{Workers: r.threads, Seed: r.sizes.Seed})
	if err != nil {
		return "", fmt.Errorf("%s/%s: %w", app.Key, v.Name, err)
	}
	st := s.Stats
	return fmt.Sprintf("%s: %s, %s; committed %d, aborts %d (%.2f%%), elapsed %v, busy %v",
		app.Key, app.Input, s.Answer, st.Committed, st.Aborts, st.AbortRatio()*100, st.Elapsed, st.Busy), nil
}
