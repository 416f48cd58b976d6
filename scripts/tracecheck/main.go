// Command tracecheck validates the documents commlat's telemetry
// exporters write. CI runs it on small workloads so schema drift in an
// exporter fails the build instead of silently breaking downstream
// tooling.
//
// Usage:
//
//	go run ./scripts/tracecheck trace.jsonl
//	commlat trace -app boruvka -jsonl - | go run ./scripts/tracecheck
//	go run ./scripts/tracecheck -chrome trace.json
//	go run ./scripts/tracecheck -snapshot telemetry.json
//	commlat flightrec -app cluster -o - | go run ./scripts/tracecheck -flight
//	go run ./scripts/tracecheck -percentiles percentiles.json
//
// The schema of a document is the exported internal/telemetry type that
// writes it (EventJSON, Snapshot, FlightDoc, LatencySnapshot):
// tracecheck decodes into that type with unknown fields refused, takes
// its vocabularies from the Stage, FlightVerdict and EventKind
// constants, and adds only what a type cannot say — required keys being
// present, timelines in order, counts that decompose their totals.
// testdata/ pins the spellings: main_test must accept one checked-in
// document of each kind, so renaming a JSON tag fails tier 1 at the
// rename. With -chrome the input is checked
// against the external Chrome trace_event format instead: a traceEvents
// array whose entries all carry a phase and a timestamp.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"commlat/internal/telemetry"
)

// vocabulary collects an enum's export spellings by ranging from its
// first value until String stops knowing the value.
func vocabulary[E interface {
	~uint8
	String() string
}](first E) map[string]bool {
	names := map[string]bool{}
	for v := first; v.String() != "unknown"; v++ {
		names[v.String()] = true
	}
	return names
}

var (
	kinds    = vocabulary(telemetry.EvBegin)
	verdicts = vocabulary(telemetry.FlightAdmitted)
	stages   = vocabulary(telemetry.Stage(0))
)

// decodeStrict decodes raw into doc, refusing fields the type does not
// declare.
func decodeStrict(raw []byte, doc any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(doc)
}

// requireKeys is the one presence check a decode into a plain struct
// cannot make: it reports the first of keys the JSON object raw lacks.
func requireKeys(raw []byte, keys ...string) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return err
	}
	for _, k := range keys {
		if _, ok := obj[k]; !ok {
			return fmt.Errorf("missing %s", k)
		}
	}
	return nil
}

// requireRowKeys applies requireKeys to every element of the array
// under field of the JSON document raw.
func requireRowKeys(raw []byte, field string, keys ...string) error {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	var rows []json.RawMessage
	if err := json.Unmarshal(doc[field], &rows); err != nil {
		return fmt.Errorf("%s: %v", field, err)
	}
	for i, row := range rows {
		if err := requireKeys(row, keys...); err != nil {
			return fmt.Errorf("%s[%d]: %v", field, i, err)
		}
	}
	return nil
}

// check validates a JSONL event trace (`commlat trace -jsonl`):
// one EventJSON per line, a known kind with the fields that kind needs,
// and a monotone timeline holding at least one begin and one commit.
func check(raw []byte, w io.Writer) error {
	if len(raw) == 0 {
		return fmt.Errorf("no events: input is empty")
	}
	var (
		lineNo int
		lastTS int64
		counts = map[string]int{}
	)
	begin, commit, abort := telemetry.EvBegin.String(), telemetry.EvCommit.String(), telemetry.EvAbort.String()
	conflict := telemetry.EvConflict.String()
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		lineNo++
		if len(line) == 0 {
			return fmt.Errorf("line %d: empty line", lineNo)
		}
		var e telemetry.EventJSON
		if err := decodeStrict(line, &e); err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if err := requireKeys(line, "ts_ns", "worker"); err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if e.TS < 0 {
			return fmt.Errorf("line %d: negative ts_ns %d", lineNo, e.TS)
		}
		if e.TS < lastTS {
			return fmt.Errorf("line %d: ts_ns %d out of order (previous %d)", lineNo, e.TS, lastTS)
		}
		lastTS = e.TS
		if e.Worker < 0 {
			return fmt.Errorf("line %d: negative worker %d", lineNo, e.Worker)
		}
		if !kinds[e.Kind] {
			return fmt.Errorf("line %d: unknown kind %q", lineNo, e.Kind)
		}
		if e.Tx == 0 {
			return fmt.Errorf("line %d: %s event without tx", lineNo, e.Kind)
		}
		if e.Kind == conflict && (e.Detector == "" || e.M1 == "" || e.M2 == "") {
			return fmt.Errorf("line %d: %s event needs detector, m1, m2", lineNo, e.Kind)
		}
		counts[e.Kind]++
	}
	if counts[begin] == 0 {
		return fmt.Errorf("no begin events in %d lines", lineNo)
	}
	if counts[commit] == 0 {
		return fmt.Errorf("no commit events in %d lines", lineNo)
	}
	fmt.Fprintf(w, "ok: %d events (%d begin, %d commit, %d abort, %d conflict)\n",
		lineNo, counts[begin], counts[commit], counts[abort], counts[conflict])
	return nil
}

// checkChrome validates the Chrome trace_event document shape: phases
// are single characters, timestamps are present on every event, and
// complete ("X") events carry durations.
func checkChrome(raw []byte, w io.Writer) error {
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  *int     `json:"pid"`
			TID  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("traceEvents is empty")
	}
	counts := map[string]int{}
	for i, e := range doc.TraceEvents {
		if len(e.Ph) != 1 {
			return fmt.Errorf("traceEvents[%d]: bad phase %q", i, e.Ph)
		}
		if e.Ph != "M" && e.TS == nil {
			return fmt.Errorf("traceEvents[%d]: missing ts", i)
		}
		if e.Ph == "X" && e.Dur == nil {
			return fmt.Errorf("traceEvents[%d]: complete event missing dur", i)
		}
		if e.Name == "" {
			return fmt.Errorf("traceEvents[%d]: missing name", i)
		}
		counts[e.Ph]++
	}
	fmt.Fprintf(w, "ok: %d chrome events (%d complete, %d instant, %d metadata)\n",
		len(doc.TraceEvents), counts["X"], counts["i"], counts["M"])
	return nil
}

// checkSnapshot validates a telemetry snapshot document (`commlat
// -telemetry-out`): every detector row carries id, kind and adt, and no
// part exceeds its whole: per-pair attribution the detector totals, a
// lock manager's reentrant grants its acquisitions.
func checkSnapshot(raw []byte, w io.Writer) error {
	var doc telemetry.Snapshot
	if err := decodeStrict(raw, &doc); err != nil {
		return err
	}
	e := doc.Engine
	if e.TxBegun < e.TxCommitted+e.TxAborted {
		return fmt.Errorf("engine: %d txs begun but %d resolved", e.TxBegun, e.TxCommitted+e.TxAborted)
	}
	var fastAdmits, filterHits uint64
	for i, d := range doc.Detectors {
		if d.ID == 0 {
			return fmt.Errorf("detectors[%d]: missing id", i)
		}
		if d.Kind == "" || d.ADT == "" {
			return fmt.Errorf("detectors[%d]: missing kind or adt", i)
		}
		var pairChecks, pairConflicts uint64
		for j, p := range d.Pairs {
			if p.M1 == "" || p.M2 == "" {
				return fmt.Errorf("detectors[%d].pairs[%d]: missing m1 or m2", i, j)
			}
			pairChecks += p.Checks
			pairConflicts += p.Conflicts
		}
		// Per-pair rows decompose the totals (attribution may drop rows,
		// never invent them).
		if pairChecks > d.Checks {
			return fmt.Errorf("detectors[%d] (%s): pair checks %d exceed total %d", i, d.Kind, pairChecks, d.Checks)
		}
		if pairConflicts > d.Conflicts {
			return fmt.Errorf("detectors[%d] (%s): pair conflicts %d exceed total %d", i, d.Kind, pairConflicts, d.Conflicts)
		}
		var acquired uint64
		for j, m := range d.Modes {
			if m.Mode == "" {
				return fmt.Errorf("detectors[%d].modes[%d]: missing mode", i, j)
			}
			acquired += m.Acquired
		}
		// Every reentrant grant is also an acquisition of its mode.
		if d.Kind == "abslock" && d.ReentrantHits > acquired {
			return fmt.Errorf("detectors[%d] (%s): reentrant hits %d exceed %d acquisitions", i, d.Kind, d.ReentrantHits, acquired)
		}
		fastAdmits += d.FastAdmits
		filterHits += d.FilterHits
	}
	fmt.Fprintf(w, "ok: snapshot with %d detectors (%d tx begun; cascade: %d fast admits, %d filter hits)\n",
		len(doc.Detectors), e.TxBegun, fastAdmits, filterHits)
	return nil
}

// checkFlight validates a flight-recorder document (`commlat flightrec
// -o`): every record needs a timestamp, a worker and a known verdict;
// the stage_ns keys must come from the pipeline vocabulary; the
// timeline is oldest-first; and a run that recorded anything must have
// buffered at least one record.
func checkFlight(raw []byte, w io.Writer) error {
	var doc telemetry.FlightDoc
	if err := decodeStrict(raw, &doc); err != nil {
		return err
	}
	if len(doc.Records) == 0 {
		return fmt.Errorf("flight document has no records")
	}
	if err := requireRowKeys(raw, "records", "ts_ns", "worker"); err != nil {
		return err
	}
	var lastTS int64
	counts := map[string]int{}
	for i, rec := range doc.Records {
		if rec.TS < lastTS {
			return fmt.Errorf("records[%d]: ts_ns %d out of order (previous %d)", i, rec.TS, lastTS)
		}
		lastTS = rec.TS
		if rec.Worker < 0 {
			return fmt.Errorf("records[%d]: negative worker", i)
		}
		if !verdicts[rec.Verdict] {
			return fmt.Errorf("records[%d]: unknown verdict %q", i, rec.Verdict)
		}
		for st := range rec.StageNS {
			if !stages[st] {
				return fmt.Errorf("records[%d]: unknown stage %q", i, st)
			}
		}
		for _, sh := range rec.Shards {
			if sh < 0 || sh > 63 {
				return fmt.Errorf("records[%d]: shard %d out of range", i, sh)
			}
		}
		counts[rec.Verdict]++
	}
	fmt.Fprintf(w, "ok: %d flight records (%d reclaimed; %d admitted, %d conflict)\n",
		len(doc.Records), doc.Dropped,
		counts[telemetry.FlightAdmitted.String()], counts[telemetry.FlightConflict.String()])
	return nil
}

// checkPercentiles validates a stage-latency percentile document
// (`commlat flightrec -percentiles`):
// stage names from the pipeline vocabulary, monotone percentiles, and
// bucket counts that decompose each stage's total.
func checkPercentiles(raw []byte, w io.Writer) error {
	var doc telemetry.LatencySnapshot
	if err := decodeStrict(raw, &doc); err != nil {
		return err
	}
	if len(doc.Stages) == 0 {
		return fmt.Errorf("percentile document has no stage rows")
	}
	var total uint64
	for i, st := range doc.Stages {
		if !stages[st.Stage] {
			return fmt.Errorf("stages[%d]: unknown stage %q", i, st.Stage)
		}
		if st.Count == 0 {
			return fmt.Errorf("stages[%d] (%s): missing or zero count", i, st.Stage)
		}
		if !(st.P50NS <= st.P90NS && st.P90NS <= st.P99NS && st.P99NS <= st.P999NS) {
			return fmt.Errorf("stages[%d] (%s): percentiles not monotone: p50 %g p90 %g p99 %g p99.9 %g",
				i, st.Stage, st.P50NS, st.P90NS, st.P99NS, st.P999NS)
		}
		var n uint64
		lastLe := int64(-1)
		for j, b := range st.Buckets {
			if int64(b.LeNS) <= lastLe {
				return fmt.Errorf("stages[%d] (%s): buckets[%d] le_ns %d out of order", i, st.Stage, j, b.LeNS)
			}
			lastLe = int64(b.LeNS)
			n += b.Count
		}
		if n != st.Count {
			return fmt.Errorf("stages[%d] (%s): bucket counts sum to %d, want %d", i, st.Stage, n, st.Count)
		}
		total += st.Count
	}
	fmt.Fprintf(w, "ok: %d latency stages, %d observations\n", len(doc.Stages), total)
	return nil
}

// modes maps the leading mode flag to its validator.
var modes = map[string]func([]byte, io.Writer) error{
	"-chrome":      checkChrome,
	"-snapshot":    checkSnapshot,
	"-flight":      checkFlight,
	"-percentiles": checkPercentiles,
}

// run validates the input args name — an optional mode flag, then a
// path (none or "-" reads stdin) — and prints the "ok:" line to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	validate := check
	if len(args) > 0 && modes[args[0]] != nil {
		validate = modes[args[0]]
		args = args[1:]
	}
	in := stdin
	if len(args) > 0 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	raw, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	if err := validate(raw, stdout); err != nil {
		return fmt.Errorf("FAIL: %v", err)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}
