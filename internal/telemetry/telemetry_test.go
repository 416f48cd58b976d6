package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestDetectorCountersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	d := r.Register("forward", "set", []string{"add", "remove", "contains"})
	if d.ID() != 1 {
		t.Fatalf("ID = %d, want 1", d.ID())
	}
	d.IncInvocation()
	d.IncInvocation()
	d.IncLogEntry()
	d.IncProbe()
	d.IncCollision()
	d.IncFallbackScan()
	d.IncRollback()
	d.Check(0, 1)
	d.Check(0, 1)
	d.Conflict(0, 1)
	d.Check(1, 2)
	d.ObserveActive(7)
	d.ObserveActive(3) // must not lower the mark
	d.ObserveJournal(11)

	s := d.Snapshot()
	if s.Invocations != 2 || s.Checks != 3 || s.Conflicts != 1 || s.Rollbacks != 1 {
		t.Fatalf("counters = %+v", s)
	}
	if s.Probes != 1 || s.Collisions != 1 || s.FallbackScans != 1 || s.LogEntries != 1 {
		t.Fatalf("index counters = %+v", s)
	}
	if s.ActiveHighWater != 7 || s.JournalHighWater != 11 {
		t.Fatalf("high-water = %d/%d", s.ActiveHighWater, s.JournalHighWater)
	}
	if len(s.Pairs) != 2 {
		t.Fatalf("pairs = %+v", s.Pairs)
	}
	if p := s.Pairs[0]; p.M1 != "add" || p.M2 != "remove" || p.Checks != 2 || p.Conflicts != 1 {
		t.Fatalf("pair[0] = %+v", p)
	}
	if label, share, ok := s.TopPair(); !ok || label != "add/remove" || share != 100 {
		t.Fatalf("TopPair = %q %v %v", label, share, ok)
	}

	m := r.Register("abslock", "accum", []string{"I", "D", "W"})
	m.ModeAcquire(2)
	m.ModeAcquire(2)
	m.ModeWait(2)
	m.Conflict(2, 2)
	ms := m.Snapshot()
	if len(ms.Modes) != 1 || ms.Modes[0].Mode != "W" || ms.Modes[0].Acquired != 2 || ms.Modes[0].Waits != 1 {
		t.Fatalf("modes = %+v", ms.Modes)
	}

	snap := r.Snapshot()
	if len(snap.Detectors) != 2 {
		t.Fatalf("snapshot lists %d detectors", len(snap.Detectors))
	}
	if got := r.label(1, 1); got != "remove" {
		t.Fatalf("label(1,1) = %q", got)
	}
	if got := r.detName(2); got != "abslock/accum" {
		t.Fatalf("detName(2) = %q", got)
	}
	if got := r.detName(0); got != "" {
		t.Fatalf("detName(0) = %q", got)
	}
}

func TestFormatAttribution(t *testing.T) {
	r := NewRegistry()
	d := r.Register("forward", "set", []string{"add", "remove"})
	d.IncInvocation()
	d.Check(0, 1)
	d.Conflict(0, 1)
	d.Check(1, 1)
	out := FormatAttribution(r.Snapshot())
	for _, want := range []string{"forward/set", "add/remove", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("attribution missing %q:\n%s", want, out)
		}
	}
	// Idle detectors are skipped.
	r2 := NewRegistry()
	r2.Register("forward", "idle", []string{"a"})
	if out := FormatAttribution(r2.Snapshot()); strings.Contains(out, "idle") {
		t.Fatalf("idle detector listed:\n%s", out)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	d := r.Register("general", "set", []string{"add", "remove"})
	d.IncInvocation()
	d.Check(0, 1)
	d.Conflict(0, 1)
	m := r.Register("abslock", "accum", []string{"I", "W"})
	m.ModeAcquire(1)
	m.ModeWait(1)
	m.ReentrantHitN(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`commlat_tx_total{outcome="begun"} 0`,
		`commlat_detector_conflicts_total{detector="general/set",id="1"} 1`,
		`commlat_pair_conflicts_total{detector="general/set",id="1",m1="add",m2="remove"} 1`,
		`commlat_mode_acquired_total{detector="abslock/accum",id="2",mode="W"} 1`,
		`commlat_mode_waits_total{detector="abslock/accum",id="2",mode="W"} 1`,
		`commlat_abslock_reentrant_hits_total{detector="abslock/accum",id="2"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be name{labels} value.
	sc := bufio.NewScanner(&buf)
	_ = sc
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Fatalf("malformed line %q", line)
		}
	}
}

func TestRingTraceBasics(t *testing.T) {
	EnableTrace(8, 1)
	defer DisableTrace()
	Emit(1, EvBegin, 10, 42, 0, 0, 0)
	Emit(1, EvCommit, 10, 42, 0, 0, 0)
	Emit(2, EvAbort, 11, 43, 0, 0, 0)
	EmitConflict(2, 11, 43, 1, 0, 1)
	EmitDecision(3, 5, 1, 2)
	evs := TraceEvents()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	kinds := map[EventKind]int{}
	for i, e := range evs {
		kinds[e.Kind]++
		if i > 0 && e.TS < evs[i-1].TS {
			t.Fatalf("events not time-ordered")
		}
	}
	if kinds[EvBegin] != 1 || kinds[EvCommit] != 1 || kinds[EvAbort] != 1 || kinds[EvConflict] != 1 || kinds[EvDecision] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
	if TraceDropped() != 0 {
		t.Fatalf("dropped = %d", TraceDropped())
	}
}

func TestRingOverwriteAndSampling(t *testing.T) {
	EnableTrace(4, 1)
	exerciseRing(t, &tr.ring, 4,
		func(w, seq int) { Emit(w, EvCommit, uint64(seq), 0, 0, 0, 0) },
		TraceEvents, func(e Event) (int, int) { return int(e.Worker), int(e.Tx) })

	EnableTrace(4, 1)
	for i := 0; i < 10; i++ {
		Emit(0, EvCommit, uint64(i), 0, 0, 0, 0)
	}
	evs := TraceEvents()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	if evs[0].Tx != 6 || evs[3].Tx != 9 {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
	if TraceDropped() != 6 {
		t.Fatalf("dropped = %d, want 6", TraceDropped())
	}

	// Sampling keeps a transaction's events together (tx % sample == 0)
	// and never drops decisions.
	EnableTrace(64, 4)
	for tx := uint64(0); tx < 8; tx++ {
		Emit(0, EvBegin, tx, 0, 0, 0, 0)
		Emit(0, EvCommit, tx, 0, 0, 0, 0)
	}
	EmitDecision(1, 1, 0, 1)
	evs = TraceEvents()
	DisableTrace()
	var lifecycle, decisions int
	for _, e := range evs {
		if e.Kind == EvDecision {
			decisions++
			continue
		}
		lifecycle++
		if e.Tx%4 != 0 {
			t.Fatalf("sampled-in tx %d not on sample boundary", e.Tx)
		}
	}
	if lifecycle != 4 || decisions != 1 {
		t.Fatalf("lifecycle = %d, decisions = %d", lifecycle, decisions)
	}

	// Disabled: Emit is a no-op, TraceEvents is empty.
	Emit(0, EvCommit, 0, 0, 0, 0, 0)
	if got := TraceEvents(); len(got) != 0 {
		t.Fatalf("disabled trace returned %d events", len(got))
	}
}

// TestConcurrentCountersAndRing hammers counters and the ring from many
// goroutines while snapshotting; run under -race this is the data-race
// proof for the whole hot path.
func TestConcurrentCountersAndRing(t *testing.T) {
	r := NewRegistry()
	d := r.Register("forward", "set", []string{"add", "remove"})
	EnableTrace(1024, 2)
	defer DisableTrace()

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d.IncInvocation()
				d.Check(0, 1)
				if i%10 == 0 {
					d.Conflict(0, 1)
					EmitConflict(w, uint64(i), int64(i), 1, 0, 1)
				}
				d.ObserveActive(i % 100)
				Emit(w, EvBegin, uint64(i), int64(i), 0, 0, 0)
				Emit(w, EvCommit, uint64(i), int64(i), 0, 0, 0)
			}
		}(w)
	}
	// Concurrent readers.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Snapshot()
				_ = TraceEvents()
				_ = TraceDropped()
			}
		}
	}()
	wg.Wait()
	close(done)

	s := d.Snapshot()
	if s.Invocations != workers*iters {
		t.Fatalf("invocations = %d, want %d", s.Invocations, workers*iters)
	}
	if s.Conflicts != workers*iters/10 {
		t.Fatalf("conflicts = %d, want %d", s.Conflicts, workers*iters/10)
	}
	if len(s.Pairs) != 1 || s.Pairs[0].Checks != workers*iters {
		t.Fatalf("pairs = %+v", s.Pairs)
	}
}

// fixedEvents builds a deterministic event slice for exporter tests.
func fixedEvents() []Event {
	return []Event{
		{TS: 1000, Tx: 1, Item: 7, Worker: 0, Kind: EvBegin},
		{TS: 1500, Tx: 2, Item: 8, Worker: 1, Kind: EvBegin},
		{TS: 2000, Tx: 2, Item: 8, Worker: 1, Kind: EvConflict, Det: 1, M1: 0, M2: 1},
		{TS: 2500, Tx: 2, Item: 8, Worker: 1, Kind: EvAbort},
		{TS: 3000, Tx: 1, Item: 7, Worker: 0, Kind: EvCommit},
		{TS: 3500, Tx: 9, Item: 3, Worker: 2, Kind: EvCommit}, // no matching begin
		{TS: 4000, Tx: 0, Item: 2, Worker: 0, Kind: EvDecision, Det: 2, M1: 0, M2: 1},
		{TS: 4500, Tx: 4, Item: 1, Worker: 3, Kind: EvBegin}, // still open at cut
	}
}

func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Register("forward", "set", []string{"add", "remove"})
	r.Register("adaptive", "ladder", []string{"global", "exclusive"})
	return r
}

func TestWriteChromeTraceGolden(t *testing.T) {
	r := goldenRegistry()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, fixedEvents()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// And it must be valid JSON with the expected top-level shape.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
}

func TestWriteJSONL(t *testing.T) {
	r := goldenRegistry()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, fixedEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(fixedEvents()) {
		t.Fatalf("got %d lines, want %d", len(lines), len(fixedEvents()))
	}
	var conflicts, decisions int
	for _, line := range lines {
		var je map[string]any
		if err := json.Unmarshal([]byte(line), &je); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		switch je["kind"] {
		case "conflict":
			conflicts++
			if je["detector"] != "forward/set" || je["m1"] != "add" || je["m2"] != "remove" {
				t.Fatalf("conflict line %q lacks attribution", line)
			}
		case "decision":
			decisions++
			if je["detector"] != "adaptive/ladder" || je["m1"] != "global" || je["m2"] != "exclusive" {
				t.Fatalf("decision line %q lacks attribution", line)
			}
		}
	}
	if conflicts != 1 || decisions != 1 {
		t.Fatalf("conflicts = %d, decisions = %d", conflicts, decisions)
	}
}

func TestEmitDisabledZeroAllocs(t *testing.T) {
	DisableTrace()
	if n := testing.AllocsPerRun(1000, func() {
		Emit(1, EvCommit, 1, 1, 0, 0, 0)
	}); n != 0 {
		t.Fatalf("disabled Emit allocates %v/op", n)
	}
	r := NewRegistry()
	d := r.Register("forward", "set", []string{"add", "remove"})
	if n := testing.AllocsPerRun(1000, func() {
		d.IncInvocation()
		d.Check(0, 1)
		d.Conflict(0, 1)
		d.ObserveActive(3)
		d.ModeAcquire(0)
		d.ModeWait(1)
	}); n != 0 {
		t.Fatalf("counter path allocates %v/op", n)
	}
}

func TestEmitEnabledZeroAllocs(t *testing.T) {
	EnableTrace(1<<10, 1)
	defer DisableTrace()
	if n := testing.AllocsPerRun(1000, func() {
		Emit(1, EvBegin, 2, 3, 0, 0, 0)
		Emit(1, EvCommit, 2, 3, 0, 0, 0)
	}); n != 0 {
		t.Fatalf("enabled Emit allocates %v/op", n)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	d := r.Register("forward", "set", []string{"add", "remove"})
	d.IncInvocation()
	h := Handler(r)
	get := func(path string) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code, w.Body.String()
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "commlat_detector_invocations_total") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/debug/telemetry"); code != 200 || !strings.Contains(body, `"kind": "forward"`) {
		t.Fatalf("/debug/telemetry: %d %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("/nope: %d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("/: %d %q", code, body)
	}
}
