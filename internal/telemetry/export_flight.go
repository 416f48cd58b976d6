// Exporters for the latency/flight/audit layer: JSON documents for the
// /debug/commlat/ endpoints and the flightrec subcommand, human-readable
// tables for the CLI, and the Prometheus-native histogram section of
// /metrics. The exported document types here are the schema:
// scripts/tracecheck decodes into them.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// --- Flight-recorder JSON -------------------------------------------------

// FlightStagesJSON is a flight record's per-stage tick counts,
// nanoseconds, one fixed field per pipeline stage (zero ticks omitted).
type FlightStagesJSON struct {
	SigFilterNS    uint32 `json:"sig_filter_ns,omitempty"`
	OptIndexNS     uint32 `json:"opt_index_ns,omitempty"`
	PreciseNS      uint32 `json:"precise_ns,omitempty"`
	RendezvousNS   uint32 `json:"rendezvous_ns,omitempty"`
	BatchPublishNS uint32 `json:"batch_publish_ns,omitempty"`
	BatchProbeNS   uint32 `json:"batch_probe_ns,omitempty"`
	CommitNS       uint32 `json:"commit_release_ns,omitempty"`
}

// FlightRecordJSON is one admission record with detector and method IDs
// resolved to names.
type FlightRecordJSON struct {
	TS       int64            `json:"ts_ns"`
	Tx       uint64           `json:"tx,omitempty"`
	Epoch    uint64           `json:"epoch"`
	Worker   int              `json:"worker"`
	Detector string           `json:"detector,omitempty"`
	Method   string           `json:"method,omitempty"`
	Verdict  string           `json:"verdict"`
	Retries  int              `json:"retries,omitempty"`
	N        int              `json:"n,omitempty"`
	Shards   []int            `json:"shards,omitempty"`
	Stages   []string         `json:"stages,omitempty"`
	StageNS  FlightStagesJSON `json:"stage_ns"`
}

// FlightDoc is the flight-recorder snapshot document: the current
// group-commit epoch, how many records wraparound reclaimed, and the
// buffered records oldest-first.
type FlightDoc struct {
	Epoch   uint64             `json:"epoch"`
	Dropped uint64             `json:"dropped"`
	Records []FlightRecordJSON `json:"records"`
}

// FlightSnapshot drains the flight rings into an export document,
// resolving IDs through the registry.
func (r *Registry) FlightSnapshot() FlightDoc {
	recs := FlightRecords()
	doc := FlightDoc{Epoch: FlightEpoch(), Dropped: FlightDropped(), Records: make([]FlightRecordJSON, 0, len(recs))}
	for i := range recs {
		doc.Records = append(doc.Records, r.flightJSON(&recs[i]))
	}
	return doc
}

func (r *Registry) flightJSON(rec *FlightRecord) FlightRecordJSON {
	j := FlightRecordJSON{
		TS: rec.TS, Tx: rec.Tx, Epoch: rec.Epoch, Worker: int(rec.Worker),
		Detector: r.detName(rec.Det), Method: r.label(rec.Det, rec.Method),
		Verdict: rec.Verdict.String(), Retries: int(rec.Retries), N: int(rec.N),
	}
	for sh := 0; sh < 64; sh++ {
		if rec.Shards&(1<<sh) != 0 {
			j.Shards = append(j.Shards, sh)
		}
	}
	for st := Stage(0); st < NumStages; st++ {
		if rec.Stages&(1<<st) != 0 {
			j.Stages = append(j.Stages, st.String())
		}
	}
	j.StageNS = FlightStagesJSON{
		SigFilterNS:    rec.StageNS[StageSigFilter],
		OptIndexNS:     rec.StageNS[StageOptIndex],
		PreciseNS:      rec.StageNS[StagePrecise],
		RendezvousNS:   rec.StageNS[StageRendezvous],
		BatchPublishNS: rec.StageNS[StageBatchPublish],
		BatchProbeNS:   rec.StageNS[StageBatchProbe],
		CommitNS:       rec.StageNS[StageCommit],
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

// --- Shard-load heatmap ---------------------------------------------------

// ShardLoad is one per-shard member detector's load row. Share is the
// shard's fraction of its router group's total invocations — the
// heatmap cell.
type ShardLoad struct {
	Detector    string  `json:"detector"`
	ID          uint16  `json:"id"`
	Shard       int64   `json:"shard"`
	Invocations uint64  `json:"invocations"`
	Conflicts   uint64  `json:"conflicts"`
	FastAdmits  uint64  `json:"fast_admits,omitempty"`
	Share       float64 `json:"share"`
}

// RouterLoad is one sharded router's local/crossing split.
type RouterLoad struct {
	Detector     string  `json:"detector"`
	ID           uint16  `json:"id"`
	Local        uint64  `json:"local"`
	Cross        uint64  `json:"cross"`
	CrossingRate float64 `json:"crossing_rate"`
}

// HeatmapDoc is the shard-load heatmap document: per-shard invocation
// shares grouped by detector, plus each router's crossing split.
type HeatmapDoc struct {
	Routers []RouterLoad `json:"routers"`
	Shards  []ShardLoad  `json:"shards"`
}

// Heatmap builds the shard-load heatmap from the registry's counters:
// every detector marked as a shard member (SetShard) becomes a cell,
// normalized within its kind/adt group; every detector that routed
// admissions (local or crossing counts) becomes a router row.
func (r *Registry) Heatmap() HeatmapDoc {
	s := r.Snapshot()
	doc := HeatmapDoc{}
	groupTotal := map[string]uint64{}
	for _, d := range s.Detectors {
		if d.Shard > 0 {
			groupTotal[d.Kind+"/"+d.ADT] += d.Invocations
		}
	}
	for _, d := range s.Detectors {
		if d.ShardLocal > 0 || d.ShardCross > 0 {
			t := d.ShardLocal + d.ShardCross
			doc.Routers = append(doc.Routers, RouterLoad{
				Detector: d.Kind + "/" + d.ADT, ID: d.ID,
				Local: d.ShardLocal, Cross: d.ShardCross,
				CrossingRate: float64(d.ShardCross) / float64(t),
			})
		}
		if d.Shard > 0 {
			name := d.Kind + "/" + d.ADT
			share := 0.0
			if t := groupTotal[name]; t > 0 {
				share = float64(d.Invocations) / float64(t)
			}
			doc.Shards = append(doc.Shards, ShardLoad{
				Detector: name, ID: d.ID, Shard: d.Shard,
				Invocations: d.Invocations, Conflicts: d.Conflicts,
				FastAdmits: d.FastAdmits, Share: share,
			})
		}
	}
	return doc
}

// WriteHeatmapJSON writes the shard-load heatmap as indented JSON.
func (r *Registry) WriteHeatmapJSON(w io.Writer) error { return writeJSON(w, r.Heatmap()) }

// --- Controller audit JSON ------------------------------------------------

// AuditDoc is the controller decision-trail document.
type AuditDoc struct {
	Entries []AuditEntry `json:"entries"`
}

// WriteAuditJSON writes the controller audit trail as indented JSON.
func WriteAuditJSON(w io.Writer) error { return writeJSON(w, AuditDoc{Entries: AuditTrail()}) }

// --- Human-readable tables ------------------------------------------------

// FormatLatencyTable renders the percentile table the flightrec
// subcommand prints.
func FormatLatencyTable(s LatencySnapshot) string {
	var b strings.Builder
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
	fmt.Fprintf(&b, "flight: epoch %d, %d records buffered, %d reclaimed by wraparound\n",
		doc.Epoch, len(doc.Records), doc.Dropped)
	fmt.Fprintf(&b, "%-12s %-6s %-24s %-12s %-13s %7s %-s\n",
		"ts ns", "worker", "detector/method", "verdict", "epoch", "retries", "stages")
	for _, rec := range recs {
		dm := rec.Detector
		if rec.Method != "" {
			dm += "." + rec.Method
		}
		fmt.Fprintf(&b, "%-12d %-6d %-24s %-12s %-13d %7d %s\n",
			rec.TS, rec.Worker, dm, rec.Verdict, rec.Epoch, rec.Retries, strings.Join(rec.Stages, ","))
	}
	return b.String()
}

// FormatAuditTable renders the controller decision trail.
func FormatAuditTable(entries []AuditEntry) string {
	var b strings.Builder
	if len(entries) == 0 {
		return "(no controller decisions recorded)\n"
	}
	fmt.Fprintf(&b, "%-12s %-16s %8s %10s %6s %6s %-8s\n",
		"ts ns", "controller", "window", "conflict", "from", "to", "reason")
	for _, e := range entries {
		fmt.Fprintf(&b, "%-12d %-16s %8d %9.4f%% %6d %6d %-8s\n",
			e.TS, e.Controller, e.Window, 100*e.ConflictRate, e.FromRung, e.ToRung, e.Reason)
	}
	return b.String()
}

// --- Prometheus histogram section -----------------------------------------

// promLatency appends the stage histograms to the /metrics payload as a
// Prometheus-native histogram: cumulative le buckets (powers of two of
// nanoseconds, empty octaves elided) plus _sum and _count per stage.
func promLatency(bw *bufio.Writer) {
	p := func(format string, args ...any) { fmt.Fprintf(bw, format, args...) }
	p("# HELP commlat_stage_latency_ns Admission latency by cascade stage, nanoseconds.\n")
	p("# TYPE commlat_stage_latency_ns histogram\n")
	for _, st := range SnapshotLatency().Stages {
		cum := uint64(0)
		for _, b := range st.Buckets {
			cum += b.Count
			p("commlat_stage_latency_ns_bucket{stage=%q,le=\"%d\"} %d\n", st.Stage, b.LeNS, cum)
		}
		p("commlat_stage_latency_ns_bucket{stage=%q,le=\"+Inf\"} %d\n", st.Stage, st.Count)
		p("commlat_stage_latency_ns_sum{stage=%q} %d\n", st.Stage, st.SumNS)
		p("commlat_stage_latency_ns_count{stage=%q} %d\n", st.Stage, st.Count)
	}
	p("# HELP commlat_flight_epoch Current flight-recorder group-commit epoch.\n# TYPE commlat_flight_epoch gauge\n")
	p("commlat_flight_epoch %d\n", FlightEpoch())
	if d := FlightDropped(); d > 0 {
		p("# HELP commlat_flight_reclaimed_total Flight records reclaimed by ring wraparound.\n# TYPE commlat_flight_reclaimed_total counter\n")
		p("commlat_flight_reclaimed_total %d\n", d)
	}
	// Last-known rung per controller, from the audit trail.
	last := map[string]AuditEntry{}
	var names []string
	for _, e := range AuditTrail() {
		if _, ok := last[e.Controller]; !ok {
			names = append(names, e.Controller)
		}
		last[e.Controller] = e
	}
	if len(names) > 0 {
		p("# HELP commlat_controller_rung Current rung value per adaptive controller.\n# TYPE commlat_controller_rung gauge\n")
		for _, name := range names {
			p("commlat_controller_rung{controller=%q} %d\n", name, last[name].ToRung)
		}
	}
}
