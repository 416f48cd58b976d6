package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"commlat/internal/telemetry"
)

// cmdFlightrec runs one application with the stage-latency histograms
// and the flight recorder enabled, then prints the percentile table and
// the most recent admission records.
func cmdFlightrec(args []string) error {
	fs := flag.NewFlagSet("flightrec", flag.ContinueOnError)
	sz := addAppFlags(fs)
	ring := fs.Int("ring", 1<<10, "per-worker flight ring capacity in records (at most 1<<20, rounded up to a power of two)")
	out := fs.String("o", "", "also write the flight-recorder document as JSON to this file (- for stdout; the tables then go to stderr)")
	percentiles := fs.String("percentiles", "", "write the stage-latency percentile document as JSON to this file (- for stdout)")
	max := fs.Int("max", 32, "flight records shown in the table (<=0 shows all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := oneStdoutDocument(fs, "o", "percentiles"); err != nil {
		return err
	}

	telemetry.EnableLatency()
	telemetry.EnableFlight(*ring)
	defer telemetry.DisableLatency()
	defer telemetry.DisableFlight()

	summary, err := runTraced(sz)
	if err != nil {
		return err
	}

	doc := telemetry.Default.FlightSnapshot()
	lat := telemetry.SnapshotLatency()

	report := io.Writer(os.Stdout)
	if *out == "-" || *percentiles == "-" {
		report = os.Stderr
	}
	for _, doc := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*out, telemetry.Default.WriteFlightJSON},
		{*percentiles, telemetry.WritePercentilesJSON},
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
	return nil
}
