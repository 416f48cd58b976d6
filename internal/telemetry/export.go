package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// --- Chrome trace_event JSON ---------------------------------------------

// chromeEvent is one record of the Chrome trace_event format (the JSON
// consumed by chrome://tracing and Perfetto). Timestamps are
// microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders events as Chrome trace_event JSON: each
// transaction becomes one complete ("X") slice from its begin event to
// its commit or abort on the worker's track, conflicts and decisions
// become instant events, and unpaired lifecycle events degrade to
// instants, so hand-driven transactions without begin events still
// load. Load the output in chrome://tracing or ui.perfetto.dev.
func (r *Registry) WriteChromeTrace(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	write := func(ce chromeEvent) error {
		if !first {
			if _, err := io.WriteString(bw, ",\n"); err != nil {
				return err
			}
		}
		first = false
		return encodeInline(bw, ce)
	}

	type beginRec struct {
		ts   int64
		item int64
		tid  int
	}
	pending := map[uint64]beginRec{}
	var order []uint64 // pending begin txs in arrival order, for a deterministic flush
	workers := map[int]bool{}

	for _, e := range evs {
		tid := int(e.Worker)
		workers[tid] = true
		switch e.Kind {
		case EvBegin:
			if _, dup := pending[e.Tx]; !dup {
				order = append(order, e.Tx)
			}
			pending[e.Tx] = beginRec{ts: e.TS, item: e.Item, tid: tid}
		case EvCommit, EvAbort:
			outcome := "commit"
			if e.Kind == EvAbort {
				outcome = "abort"
			}
			if b, ok := pending[e.Tx]; ok {
				delete(pending, e.Tx)
				if err := write(chromeEvent{
					Name: "tx", Ph: "X", TS: us(b.ts), Dur: us(e.TS - b.ts),
					PID: 1, TID: b.tid,
					Args: map[string]any{"tx": e.Tx, "item": b.item, "outcome": outcome},
				}); err != nil {
					return err
				}
			} else if err := write(chromeEvent{
				Name: outcome, Ph: "i", TS: us(e.TS), PID: 1, TID: tid, Scope: "t",
				Args: map[string]any{"tx": e.Tx, "item": e.Item},
			}); err != nil {
				return err
			}
		case EvConflict:
			name := "conflict"
			if m1, m2 := r.label(e.Det, e.M1), r.label(e.Det, e.M2); m1 != "" || m2 != "" {
				name = "conflict " + m1 + "/" + m2
			}
			if err := write(chromeEvent{
				Name: name, Ph: "i", TS: us(e.TS), PID: 1, TID: tid, Scope: "t",
				Args: map[string]any{
					"tx": e.Tx, "item": e.Item, "detector": r.detName(e.Det),
					"m1": r.label(e.Det, e.M1), "m2": r.label(e.Det, e.M2),
				},
			}); err != nil {
				return err
			}
		case EvDecision:
			if err := write(chromeEvent{
				Name: "decision " + r.label(e.Det, e.M1) + "→" + r.label(e.Det, e.M2),
				Ph:   "i", TS: us(e.TS), PID: 1, TID: tid, Scope: "g",
				Args: map[string]any{"detector": r.detName(e.Det), "epoch": e.Item},
			}); err != nil {
				return err
			}
		}
	}
	// Transactions still open when the trace was cut: flush as instants.
	for _, tx := range order {
		b, ok := pending[tx]
		if !ok {
			continue
		}
		if err := write(chromeEvent{
			Name: "begin (open)", Ph: "i", TS: us(b.ts), PID: 1, TID: b.tid, Scope: "t",
			Args: map[string]any{"tx": tx, "item": b.item},
		}); err != nil {
			return err
		}
	}
	// Name the worker tracks.
	tids := make([]int, 0, len(workers))
	for tid := range workers {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		if err := write(chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", tid)},
		}); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// us converts trace nanoseconds to trace_event microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// encodeInline writes one JSON object without a trailing newline,
// keeping the array layout one-event-per-line.
func encodeInline(bw *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = bw.Write(b)
	return err
}

// --- JSONL ----------------------------------------------------------------

// EventJSON is one line of the JSONL event trace: an Event with its
// detector and label IDs resolved to names. Which optional fields a line
// carries depends on its kind (see WriteJSONL).
type EventJSON struct {
	TS       int64  `json:"ts_ns"`
	Kind     string `json:"kind"`
	Worker   int    `json:"worker"`
	Tx       uint64 `json:"tx,omitempty"`
	Item     int64  `json:"item,omitempty"`
	Detector string `json:"detector,omitempty"`
	M1       string `json:"m1,omitempty"`
	M2       string `json:"m2,omitempty"`
	Epoch    int64  `json:"epoch,omitempty"`
}

// WriteJSONL renders events one JSON object per line, resolving
// detector and label IDs to names through the registry.
func (r *Registry) WriteJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range evs {
		je := EventJSON{TS: e.TS, Kind: e.Kind.String(), Worker: int(e.Worker), Tx: e.Tx}
		switch e.Kind {
		case EvConflict:
			je.Item = e.Item
			je.Detector = r.detName(e.Det)
			je.M1, je.M2 = r.label(e.Det, e.M1), r.label(e.Det, e.M2)
		case EvDecision:
			je.Epoch = e.Item
			je.Detector = r.detName(e.Det)
			je.M1, je.M2 = r.label(e.Det, e.M1), r.label(e.Det, e.M2)
		default:
			je.Item = e.Item
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// --- Attribution table ----------------------------------------------------

// FormatAttribution renders the per-method-pair (and per-mode) conflict
// attribution of every detector that saw work: for each, pairs sorted
// by conflicts, with each pair's share of the detector's conflicts —
// the "92% of aborts were add/remove" view the lattice argument needs.
func FormatAttribution(s Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d begun, %d committed, %d aborted\n",
		s.Engine.TxBegun, s.Engine.TxCommitted, s.Engine.TxAborted)
	for _, d := range s.Detectors {
		if d.Invocations == 0 && d.Checks == 0 && d.Conflicts == 0 && len(d.Modes) == 0 &&
			d.ShardLocal == 0 && d.ShardCross == 0 {
			continue
		}
		fmt.Fprintf(&b, "\ndetector %s/%s (#%d): %d invocations, %d checks, %d conflicts",
			d.Kind, d.ADT, d.ID, d.Invocations, d.Checks, d.Conflicts)
		if d.Probes > 0 || d.FallbackScans > 0 {
			fmt.Fprintf(&b, "; index %d probes, %d collisions, %d fallback scans",
				d.Probes, d.Collisions, d.FallbackScans)
		}
		if d.FastAdmits > 0 || d.FilterHits > 0 || d.CascadeFallbacks > 0 {
			fmt.Fprintf(&b, "; cascade %d fast admits, %d filter hits, %d opt scans, %d retries, %d fallbacks",
				d.FastAdmits, d.FilterHits, d.OptScans, d.OptRetries, d.CascadeFallbacks)
		}
		if d.ReentrantHits > 0 {
			fmt.Fprintf(&b, "; %d reentrant hits", d.ReentrantHits)
		}
		if d.BatchesWhole > 0 || d.BatchesSplit > 0 || d.BatchesSerial > 0 {
			fmt.Fprintf(&b, "; batches %d whole, %d split, %d serialized",
				d.BatchesWhole, d.BatchesSplit, d.BatchesSerial)
		}
		if d.ShardLocal > 0 || d.ShardCross > 0 {
			rate := 0.0
			if t := d.ShardLocal + d.ShardCross; t > 0 {
				rate = 100 * float64(d.ShardCross) / float64(t)
			}
			fmt.Fprintf(&b, "; sharding %d local, %d crossing (%.1f%% crossing)",
				d.ShardLocal, d.ShardCross, rate)
		}
		if d.Shard > 0 {
			fmt.Fprintf(&b, " [shard %d]", d.Shard)
		}
		if d.Rollbacks > 0 {
			fmt.Fprintf(&b, "; %d rollbacks", d.Rollbacks)
		}
		if d.ActiveHighWater > 0 {
			fmt.Fprintf(&b, "; active high-water %d", d.ActiveHighWater)
		}
		if d.JournalHighWater > 0 {
			fmt.Fprintf(&b, "; journal high-water %d", d.JournalHighWater)
		}
		b.WriteString("\n")
		if len(d.Pairs) > 0 {
			pairs := append([]PairStat(nil), d.Pairs...)
			sort.Slice(pairs, func(i, j int) bool {
				if pairs[i].Conflicts != pairs[j].Conflicts {
					return pairs[i].Conflicts > pairs[j].Conflicts
				}
				if pairs[i].Checks != pairs[j].Checks {
					return pairs[i].Checks > pairs[j].Checks
				}
				return pairs[i].M1+"/"+pairs[i].M2 < pairs[j].M1+"/"+pairs[j].M2
			})
			fmt.Fprintf(&b, "  %-24s %12s %12s %9s\n", "pair (active/incoming)", "checks", "conflicts", "% aborts")
			for _, p := range pairs {
				share := 0.0
				if d.Conflicts > 0 {
					share = 100 * float64(p.Conflicts) / float64(d.Conflicts)
				}
				fmt.Fprintf(&b, "  %-24s %12d %12d %8.1f%%\n", p.M1+"/"+p.M2, p.Checks, p.Conflicts, share)
			}
		}
		if len(d.Modes) > 0 {
			fmt.Fprintf(&b, "  %-24s %12s %12s\n", "mode", "acquired", "waits")
			for _, m := range d.Modes {
				fmt.Fprintf(&b, "  %-24s %12d %12d\n", m.Mode, m.Acquired, m.Waits)
			}
		}
	}
	return b.String()
}

// TopPair returns the detector's most conflict-heavy pair and its share
// of the detector's conflicts, or ok=false if it saw none.
func (d DetectorSnapshot) TopPair() (label string, share float64, ok bool) {
	var best PairStat
	for _, p := range d.Pairs {
		if p.Conflicts > best.Conflicts {
			best = p
		}
	}
	if best.Conflicts == 0 || d.Conflicts == 0 {
		return "", 0, false
	}
	return best.M1 + "/" + best.M2, 100 * float64(best.Conflicts) / float64(d.Conflicts), true
}

// --- Prometheus text ------------------------------------------------------

// WritePrometheus renders the registry's counters in the Prometheus
// text exposition format (the /metrics payload).
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	bw := bufio.NewWriter(w)
	p := func(format string, args ...any) { fmt.Fprintf(bw, format, args...) }

	p("# HELP commlat_tx_total Transactions by outcome.\n# TYPE commlat_tx_total counter\n")
	p("commlat_tx_total{outcome=\"begun\"} %d\n", s.Engine.TxBegun)
	p("commlat_tx_total{outcome=\"committed\"} %d\n", s.Engine.TxCommitted)
	p("commlat_tx_total{outcome=\"aborted\"} %d\n", s.Engine.TxAborted)

	counter := func(name, help string, get func(DetectorSnapshot) uint64) {
		p("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, d := range s.Detectors {
			if v := get(d); v != 0 {
				p("%s{detector=%q,id=\"%d\"} %d\n", name, d.Kind+"/"+d.ADT, d.ID, v)
			}
		}
	}
	counter("commlat_detector_invocations_total", "Guarded invocations processed.", func(d DetectorSnapshot) uint64 { return d.Invocations })
	counter("commlat_detector_checks_total", "Pairwise commutativity conditions evaluated.", func(d DetectorSnapshot) uint64 { return d.Checks })
	counter("commlat_detector_conflicts_total", "Invocations rejected.", func(d DetectorSnapshot) uint64 { return d.Conflicts })
	counter("commlat_detector_rollbacks_total", "Journal rollback sweeps.", func(d DetectorSnapshot) uint64 { return d.Rollbacks })
	counter("commlat_detector_log_entries_total", "Primitive-function results logged.", func(d DetectorSnapshot) uint64 { return d.LogEntries })
	counter("commlat_detector_index_probes_total", "Disequality-index probes.", func(d DetectorSnapshot) uint64 { return d.Probes })
	counter("commlat_detector_index_collisions_total", "Entries surfaced by probes.", func(d DetectorSnapshot) uint64 { return d.Collisions })
	counter("commlat_detector_index_fallback_scans_total", "Full active-list scans.", func(d DetectorSnapshot) uint64 { return d.FallbackScans })
	counter("commlat_cascade_fast_admits_total", "Invocations admitted by the signature filter alone.", func(d DetectorSnapshot) uint64 { return d.FastAdmits })
	counter("commlat_cascade_filter_hits_total", "Signature-filter hits that fell through to the optimistic path.", func(d DetectorSnapshot) uint64 { return d.FilterHits })
	counter("commlat_cascade_opt_scans_total", "Optimistic lock-free chain scans.", func(d DetectorSnapshot) uint64 { return d.OptScans })
	counter("commlat_cascade_opt_retries_total", "Version-stamp races retried on the optimistic path.", func(d DetectorSnapshot) uint64 { return d.OptRetries })
	counter("commlat_cascade_fallbacks_total", "Invocations through the mutex-guarded overflow path.", func(d DetectorSnapshot) uint64 { return d.CascadeFallbacks })
	counter("commlat_abslock_reentrant_hits_total", "Lock acquisitions granted against the transaction's own existing hold.", func(d DetectorSnapshot) uint64 { return d.ReentrantHits })
	counter("commlat_batches_whole_total", "Admission batches admitted whole.", func(d DetectorSnapshot) uint64 { return d.BatchesWhole })
	counter("commlat_batches_split_total", "Admission batches split into a grouped prefix and a serialized rest.", func(d DetectorSnapshot) uint64 { return d.BatchesSplit })
	counter("commlat_batches_serialized_total", "Admission batches fully serialized.", func(d DetectorSnapshot) uint64 { return d.BatchesSerial })
	counter("commlat_shard_local_total", "Admissions routed to a single shard.", func(d DetectorSnapshot) uint64 { return d.ShardLocal })
	counter("commlat_shard_cross_total", "Admissions that crossed shards (rendezvous).", func(d DetectorSnapshot) uint64 { return d.ShardCross })

	p("# HELP commlat_detector_active_high_water Peak active-log size.\n# TYPE commlat_detector_active_high_water gauge\n")
	for _, d := range s.Detectors {
		if d.ActiveHighWater != 0 {
			p("commlat_detector_active_high_water{detector=%q,id=\"%d\"} %d\n", d.Kind+"/"+d.ADT, d.ID, d.ActiveHighWater)
		}
	}
	p("# HELP commlat_pair_conflicts_total Conflicts by (active, incoming) label pair.\n# TYPE commlat_pair_conflicts_total counter\n")
	for _, d := range s.Detectors {
		for _, pr := range d.Pairs {
			if pr.Conflicts != 0 {
				p("commlat_pair_conflicts_total{detector=%q,id=\"%d\",m1=%q,m2=%q} %d\n",
					d.Kind+"/"+d.ADT, d.ID, pr.M1, pr.M2, pr.Conflicts)
			}
		}
	}
	p("# HELP commlat_mode_acquired_total Lock-mode acquisitions.\n# TYPE commlat_mode_acquired_total counter\n")
	p("# HELP commlat_mode_waits_total Failed (would-block) lock-mode acquisitions.\n# TYPE commlat_mode_waits_total counter\n")
	for _, d := range s.Detectors {
		for _, m := range d.Modes {
			if m.Acquired != 0 {
				p("commlat_mode_acquired_total{detector=%q,id=\"%d\",mode=%q} %d\n", d.Kind+"/"+d.ADT, d.ID, m.Mode, m.Acquired)
			}
			if m.Waits != 0 {
				p("commlat_mode_waits_total{detector=%q,id=\"%d\",mode=%q} %d\n", d.Kind+"/"+d.ADT, d.ID, m.Mode, m.Waits)
			}
		}
	}
	promLatency(bw)
	return bw.Flush()
}
