package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"commlat/internal/telemetry"
)

// cmdFlightrec runs one application with the stage-latency histograms
// and the flight recorder enabled, then prints the percentile table,
// the most recent admission records, and the controller audit trail —
// the offline twin of the /debug/commlat/ endpoints.
func cmdFlightrec(args []string) error {
	fs := flag.NewFlagSet("flightrec", flag.ExitOnError)
	sz := addAppFlags(fs)
	ring := fs.Int("ring", 1<<10, "per-worker flight ring capacity in records (rounded up to a power of two)")
	jsonMode := fs.Bool("json", false, "write the flight-recorder document as JSON to stdout (tables go to stderr)")
	out := fs.String("o", "", "also write the flight-recorder document as JSON to this file (- for stdout)")
	percentiles := fs.String("percentiles", "", "write the stage-latency percentile document as JSON to this file (- for stdout)")
	heatmap := fs.String("heatmap", "", "write the shard-load heatmap document as JSON to this file (- for stdout)")
	auditOut := fs.String("audit", "", "write the controller audit trail as JSON to this file (- for stdout)")
	max := fs.Int("max", 32, "flight records shown in the table (<=0 shows all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	telemetry.EnableLatency()
	telemetry.EnableFlight(*ring)
	defer telemetry.DisableLatency()
	defer telemetry.DisableFlight()
	telemetry.ResetAudit()

	summary, err := runTraced(sz)
	if err != nil {
		return err
	}

	doc := telemetry.Default.FlightSnapshot()
	lat := telemetry.SnapshotLatency()
	audit := telemetry.AuditTrail()

	report := io.Writer(os.Stdout)
	if *jsonMode || *out == "-" || *percentiles == "-" || *heatmap == "-" || *auditOut == "-" {
		report = os.Stderr
	}
	if *jsonMode {
		if err := telemetry.Default.WriteFlightJSON(os.Stdout); err != nil {
			return err
		}
	}
	for _, doc := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*out, telemetry.Default.WriteFlightJSON},
		{*percentiles, telemetry.WritePercentilesJSON},
		{*heatmap, telemetry.Default.WriteHeatmapJSON},
		{*auditOut, telemetry.WriteAuditJSON},
	} {
		if err := writeTo(doc.path, doc.write); err != nil {
			return err
		}
	}

	fmt.Fprintln(report, summary)
	fmt.Fprintln(report)
	fmt.Fprint(report, telemetry.FormatLatencyTable(lat))
	fmt.Fprintln(report)
	fmt.Fprint(report, telemetry.FormatFlightTable(doc, *max))
	fmt.Fprintln(report)
	fmt.Fprint(report, telemetry.FormatAuditTable(audit))
	return nil
}
