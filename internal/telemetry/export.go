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
// its commit or abort on the worker's track, conflicts become instant
// events, and unpaired lifecycle events degrade to instants, so
// hand-driven transactions without begin events still load. Load the
// output in chrome://tracing or ui.perfetto.dev.
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
// detector and label IDs resolved to names. Only conflict lines carry
// the detector and label fields.
type EventJSON struct {
	TS       int64  `json:"ts_ns"`
	Kind     string `json:"kind"`
	Worker   int    `json:"worker"`
	Tx       uint64 `json:"tx,omitempty"`
	Item     int64  `json:"item,omitempty"`
	Detector string `json:"detector,omitempty"`
	M1       string `json:"m1,omitempty"`
	M2       string `json:"m2,omitempty"`
}

// WriteJSONL renders events one JSON object per line, resolving
// detector and label IDs to names through the registry.
func (r *Registry) WriteJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range evs {
		je := EventJSON{TS: e.TS, Kind: e.Kind.String(), Worker: int(e.Worker), Tx: e.Tx, Item: e.Item}
		if e.Kind == EvConflict {
			je.Detector = r.detName(e.Det)
			je.M1, je.M2 = r.label(e.Det, e.M1), r.label(e.Det, e.M2)
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
