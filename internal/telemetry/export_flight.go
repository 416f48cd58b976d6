// Exporters for the latency and flight layer: JSON documents for the
// flightrec subcommand's -o and -percentiles, and human-readable tables
// for the CLI. The exported document types here are the schema:
// scripts/tracecheck decodes into them.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// --- Flight-recorder JSON -------------------------------------------------

// FlightRecordJSON is one admission record with detector and method IDs
// resolved to names. StageNS has one entry per stage the admission
// traversed, keyed by the stage's export spelling; a value is 0 when
// latency recording was off.
type FlightRecordJSON struct {
	TS       int64             `json:"ts_ns"`
	Tx       uint64            `json:"tx,omitempty"`
	Worker   int               `json:"worker"`
	Detector string            `json:"detector,omitempty"`
	Method   string            `json:"method,omitempty"`
	Verdict  string            `json:"verdict"`
	Retries  int               `json:"retries,omitempty"`
	N        int               `json:"n,omitempty"`
	Shards   []int             `json:"shards,omitempty"`
	StageNS  map[string]uint32 `json:"stage_ns,omitempty"`
}

// FlightDoc is the flight-recorder snapshot document: how many records
// wraparound reclaimed, and the buffered records oldest-first.
type FlightDoc struct {
	Dropped uint64             `json:"dropped"`
	Records []FlightRecordJSON `json:"records"`
}

// FlightSnapshot drains the flight rings into an export document,
// resolving IDs through the registry.
func (r *Registry) FlightSnapshot() FlightDoc {
	recs := FlightRecords()
	doc := FlightDoc{Dropped: FlightDropped(), Records: make([]FlightRecordJSON, 0, len(recs))}
	for i := range recs {
		doc.Records = append(doc.Records, r.flightJSON(&recs[i]))
	}
	return doc
}

func (r *Registry) flightJSON(rec *FlightRecord) FlightRecordJSON {
	j := FlightRecordJSON{
		TS: rec.TS, Tx: rec.Tx, Worker: int(rec.Worker),
		Detector: r.detName(rec.Det), Method: r.label(rec.Det, rec.Method),
		Verdict: rec.Verdict.String(), Retries: int(rec.Retries), N: int(rec.N),
	}
	for sh := 0; sh < 64; sh++ {
		if rec.Shards&(1<<sh) != 0 {
			j.Shards = append(j.Shards, sh)
		}
	}
	if rec.Stages != 0 {
		j.StageNS = map[string]uint32{}
	}
	for st := Stage(0); st < NumStages; st++ {
		if rec.Stages&(1<<st) != 0 {
			j.StageNS[st.String()] = rec.StageNS[st]
		}
	}
	return j
}

// writeJSON is how every telemetry document is written: indented, one
// trailing newline.
func writeJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteFlightJSON writes the flight-recorder snapshot as indented JSON.
func (r *Registry) WriteFlightJSON(w io.Writer) error { return writeJSON(w, r.FlightSnapshot()) }

// --- Percentile JSON ------------------------------------------------------

// WritePercentilesJSON writes the merged stage-latency snapshot
// (histograms + percentile table) as indented JSON.
func WritePercentilesJSON(w io.Writer) error { return writeJSON(w, SnapshotLatency()) }

// --- Human-readable tables ------------------------------------------------

// FormatLatencyTable renders the percentile table the flightrec
// subcommand prints.
func FormatLatencyTable(s LatencySnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency: stage counts are of observed transactions (1 in %d on the lock and logged-gatekeeper paths)\n", observeEvery)
	fmt.Fprintf(&b, "%-16s %12s %12s %12s %12s %12s %12s\n",
		"stage", "count", "p50 ns", "p90 ns", "p99 ns", "p99.9 ns", "mean ns")
	for _, st := range s.Stages {
		mean := 0.0
		if st.Count > 0 {
			mean = float64(st.SumNS) / float64(st.Count)
		}
		fmt.Fprintf(&b, "%-16s %12d %12.0f %12.0f %12.0f %12.0f %12.1f\n",
			st.Stage, st.Count, st.P50NS, st.P90NS, st.P99NS, st.P999NS, mean)
	}
	if len(s.Stages) == 0 {
		b.WriteString("(no stage observations recorded)\n")
	}
	return b.String()
}

// FormatFlightTable renders the most recent flight records (up to max;
// <=0 means all), newest last.
func FormatFlightTable(doc FlightDoc, max int) string {
	var b strings.Builder
	recs := doc.Records
	if max > 0 && len(recs) > max {
		recs = recs[len(recs)-max:]
	}
	fmt.Fprintf(&b, "flight: %d records buffered, %d reclaimed by wraparound\n",
		len(doc.Records), doc.Dropped)
	fmt.Fprintf(&b, "%-12s %-6s %-24s %-12s %7s %-s\n",
		"ts ns", "worker", "detector/method", "verdict", "retries", "stages")
	for _, rec := range recs {
		dm := rec.Detector
		if rec.Method != "" {
			dm += "." + rec.Method
		}
		var stages []string
		for st := Stage(0); st < NumStages; st++ {
			if _, ok := rec.StageNS[st.String()]; ok {
				stages = append(stages, st.String())
			}
		}
		fmt.Fprintf(&b, "%-12d %-6d %-24s %-12s %7d %s\n",
			rec.TS, rec.Worker, dm, rec.Verdict, rec.Retries, strings.Join(stages, ","))
	}
	return b.String()
}
