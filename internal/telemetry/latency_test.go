package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// The latency and flight recorders are process-wide; these tests
// enable, exercise and disable them serially (no t.Parallel) so they
// never observe each other's state.

func TestTelemetryLatencyBuckets(t *testing.T) {
	cases := []struct {
		d    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 38, 39}, {1 << 39, 39}, {^uint64(0), 39},
	}
	for _, c := range cases {
		if got := latBucket(c.d); got != c.want {
			t.Errorf("latBucket(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestTelemetryLatencySnapshotAndQuantiles(t *testing.T) {
	EnableLatency()
	defer DisableLatency()
	// 1000 observations at ~100ns, 10 at ~10µs: the tail percentiles
	// must land in the slow octave, the median in the fast one.
	for i := 0; i < 1000; i++ {
		StageRecord(i, StageSigFilter, 100)
	}
	for i := 0; i < 10; i++ {
		StageRecord(i, StageSigFilter, 10_000)
	}
	s := SnapshotLatency()
	if !s.Enabled || len(s.Stages) != 1 {
		t.Fatalf("snapshot: enabled=%v stages=%d", s.Enabled, len(s.Stages))
	}
	st := s.Stages[0]
	if st.Stage != "sig_filter" || st.Count != 1010 {
		t.Fatalf("stage row: %+v", st)
	}
	if st.SumNS != 1000*100+10*10_000 {
		t.Fatalf("sum: %d", st.SumNS)
	}
	if !(st.P50NS <= st.P90NS && st.P90NS <= st.P99NS && st.P99NS <= st.P999NS) {
		t.Fatalf("percentiles not monotone: %+v", st)
	}
	if st.P50NS < 64 || st.P50NS > 128 {
		t.Errorf("p50 outside the 100ns octave: %g", st.P50NS)
	}
	if st.P999NS < 8192 || st.P999NS > 16384 {
		t.Errorf("p99.9 outside the 10µs octave: %g", st.P999NS)
	}
	var n uint64
	for _, b := range st.Buckets {
		n += b.Count
	}
	if n != st.Count {
		t.Fatalf("bucket counts sum to %d, want %d", n, st.Count)
	}
}

func TestTelemetryLatencyDisabledClock(t *testing.T) {
	DisableLatency()
	if LatClock() != 0 {
		t.Fatal("LatClock != 0 while disabled")
	}
	if StageObserve(0, StageSigFilter, 0) != 0 {
		t.Fatal("StageObserve(0 mark) must be a no-op returning 0")
	}
	EnableLatency()
	defer DisableLatency()
	if LatClock() == 0 {
		t.Fatal("LatClock returned the disabled sentinel while enabled")
	}
}

// TestTelemetryObservedRule: one transaction id in observeEvery is
// observed, and the trace's -sample rule at the same period keeps
// exactly those transactions.
func TestTelemetryObservedRule(t *testing.T) {
	n := 0
	for tx := uint64(0); tx < 100*observeEvery; tx++ {
		if Observed(tx) {
			n++
		}
	}
	if n != 100 || !Observed(0) || Observed(1) {
		t.Fatalf("%d of %d ids observed, want 100", n, 100*observeEvery)
	}
	EnableTrace(64, observeEvery)
	defer DisableTrace()
	for tx := uint64(1); tx <= 4*observeEvery; tx++ {
		Emit(0, EvBegin, tx, 0, 0, 0, 0)
	}
	for _, e := range TraceEvents() {
		if !Observed(e.Tx) {
			t.Errorf("-sample %d traced unobserved tx %d", observeEvery, e.Tx)
		}
	}
	if got := len(TraceEvents()); got != 4 {
		t.Errorf("-sample %d traced %d of %d transactions, want 4", observeEvery, got, 4*observeEvery)
	}
}

func TestTelemetryTxClockAndSince(t *testing.T) {
	DisableLatency()
	if TxClock(observeEvery) != 0 {
		t.Fatal("TxClock != 0 while latency recording is off")
	}
	if Since(0) != 0 {
		t.Fatal("Since(0) must be 0")
	}
	EnableLatency()
	defer DisableLatency()
	if TxClock(observeEvery+1) != 0 {
		t.Fatal("TxClock != 0 for an unobserved transaction")
	}
	mark := TxClock(observeEvery)
	if mark == 0 {
		t.Fatal("TxClock returned the disabled sentinel for an observed transaction")
	}
	DisableLatency()
	time.Sleep(time.Microsecond)
	if d := Since(mark); d <= 0 {
		t.Fatalf("Since(mark) = %d after DisableLatency, want the elapsed time", d)
	}
}

func TestTelemetryLatencyStageChaining(t *testing.T) {
	EnableLatency()
	defer DisableLatency()
	t0 := LatClock()
	t1 := StageObserve(3, StageSigFilter, t0)
	if t1 < t0 || t1 == 0 {
		t.Fatalf("chained mark went backwards: %d -> %d", t0, t1)
	}
	StageObserve(3, StageOptIndex, t1)
	s := SnapshotLatency()
	seen := map[string]bool{}
	for _, st := range s.Stages {
		seen[st.Stage] = true
	}
	if !seen["sig_filter"] || !seen["opt_index"] {
		t.Fatalf("stages not recorded: %v", seen)
	}
}

func TestTelemetryFlightWraparound(t *testing.T) {
	EnableFlight(4)
	defer DisableFlight()
	exerciseRing(t, &fr, 4,
		func(w, seq int) { RecordFlight(w, &FlightRecord{Tx: uint64(seq)}) },
		FlightRecords, func(r FlightRecord) (int, int) { return int(r.Worker), int(r.Tx) })

	EnableFlight(4)
	for i := 0; i < 3; i++ {
		rec := FlightRecord{Tx: uint64(i + 1), Verdict: FlightAdmitted}
		rec.Mark(StageSigFilter, 100)
		RecordFlight(0, &rec)
	}
	for i := 3; i < 10; i++ {
		rec := FlightRecord{Tx: uint64(i + 1), Verdict: FlightConflict}
		RecordFlight(0, &rec)
	}
	recs := FlightRecords()
	if len(recs) != 4 {
		t.Fatalf("ring of 4 buffered %d records", len(recs))
	}
	if FlightDropped() != 6 {
		t.Fatalf("dropped = %d, want 6", FlightDropped())
	}
	for _, r := range recs {
		if r.Tx <= 6 {
			t.Fatalf("record %d survived wraparound; want the newest 4", r.Tx)
		}
		if r.Verdict.String() != "conflict" {
			t.Fatalf("verdict: %s", r.Verdict)
		}
	}
}

// TestTelemetryFlightStageMap: stage_ns keys exactly the stages a
// record traversed — one timed at 0 ns, as with latency recording off,
// is keyed with 0, an untraversed one is absent — and the flight table
// lists them in pipeline order.
func TestTelemetryFlightStageMap(t *testing.T) {
	r := NewRegistry()
	d := r.Register("cascade", "set", []string{"add"})
	rec := FlightRecord{Tx: 1, Det: d.ID(), Verdict: FlightConflict}
	rec.Mark(StageCommit, 75)
	rec.Mark(StagePrecise, 0)
	rec.Mark(StageSigFilter, 120)
	j := r.flightJSON(&rec)
	if got := fmt.Sprint(j.StageNS); got != "map[commit_release:75 precise:0 sig_filter:120]" {
		t.Fatalf("stage_ns = %s", got)
	}
	table := FormatFlightTable(FlightDoc{Records: []FlightRecordJSON{j}}, 0)
	if !strings.Contains(table, " sig_filter,precise,commit_release\n") {
		t.Fatalf("flight table stages not in pipeline order:\n%s", table)
	}
	if j := r.flightJSON(&FlightRecord{Verdict: FlightAdmitted}); j.StageNS != nil {
		t.Fatalf("record with no stages has stage_ns %v", j.StageNS)
	}
}

func TestTelemetryFlightMarkSaturation(t *testing.T) {
	var rec FlightRecord
	rec.Mark(StagePrecise, int64(1)<<40)
	if rec.StageNS[StagePrecise] != ^uint32(0) {
		t.Fatalf("overlong duration did not saturate: %d", rec.StageNS[StagePrecise])
	}
	if rec.Stages&(1<<StagePrecise) == 0 {
		t.Fatal("Mark did not set the stage bit")
	}
	rec.Mark(StageCommit, -5)
	if rec.StageNS[StageCommit] != 0 {
		t.Fatalf("negative duration not clamped: %d", rec.StageNS[StageCommit])
	}
}

func TestTelemetryFlightDisabledIsNoop(t *testing.T) {
	DisableFlight()
	rec := FlightRecord{Tx: 1}
	RecordFlight(0, &rec)
	if n := len(FlightRecords()); n != 0 {
		t.Fatalf("disabled recorder buffered %d records", n)
	}
}

// TestTelemetryObservabilityDocuments: the percentile and flight
// documents flightrec writes decode into their types, unknown fields
// refused, and carry the recorded stage, verdict, shard list and
// detector name.
func TestTelemetryObservabilityDocuments(t *testing.T) {
	EnableLatency()
	EnableFlight(64)
	defer DisableLatency()
	defer DisableFlight()

	r := NewRegistry()
	router := r.Register("sharded", "set", []string{"add"})
	router.ShardLocal()
	router.ShardCross()
	sh0 := r.Register("cascade", "set", []string{"add"})
	sh0.SetShard(1)
	sh0.IncInvocation()

	StageRecord(0, StageRendezvous, 500)
	rec := FlightRecord{Tx: 7, Det: router.ID(), Verdict: FlightAdmitted, Shards: 0b11}
	rec.Mark(StageRendezvous, 500)
	RecordFlight(0, &rec)

	decode := func(write func(io.Writer) error, doc any) {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(doc); err != nil {
			t.Fatalf("%T: %v", doc, err)
		}
	}

	var lat LatencySnapshot
	decode(WritePercentilesJSON, &lat)
	if !lat.Enabled || len(lat.Stages) != 1 || lat.Stages[0].Stage != "rendezvous" {
		t.Fatalf("percentiles doc: %+v", lat)
	}

	var fd FlightDoc
	decode(r.WriteFlightJSON, &fd)
	if len(fd.Records) != 1 || fd.Records[0].Verdict != "admitted" {
		t.Fatalf("flight doc: %+v", fd)
	}
	if got := fd.Records[0].Shards; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("shard list: %v", got)
	}
	if fd.Records[0].Detector != "sharded/set" {
		t.Fatalf("detector name: %q", fd.Records[0].Detector)
	}
}

// TestTelemetryConcurrentScrape races live recording against the three
// document writers (-telemetry-out's snapshot, flightrec's -o and
// -percentiles); run under -race it proves the lock-free merge reads
// and ring drains are sound against concurrent writers.
func TestTelemetryConcurrentScrape(t *testing.T) {
	EnableLatency()
	EnableFlight(64)
	defer DisableLatency()
	defer DisableFlight()

	r := NewRegistry()
	d := r.Register("cascade", "set", []string{"add"})

	var writers, scrapers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d.IncInvocation()
				t0 := LatClock()
				t1 := StageObserve(w, StageSigFilter, t0)
				StageObserve(w, StageCommit, t1)
				rec := FlightRecord{Tx: uint64(i), Verdict: FlightAdmitted}
				rec.Mark(StageSigFilter, 50)
				RecordFlight(w, &rec)
			}
		}(w)
	}
	documents := []func(io.Writer) error{
		func(w io.Writer) error { return writeJSON(w, r.Snapshot()) },
		r.WriteFlightJSON,
		WritePercentilesJSON,
	}
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 15; i++ {
				for _, write := range documents {
					if err := write(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	// Every scrape races live writers; only once the scrapers are done
	// are the writers released.
	scrapers.Wait()
	close(stop)
	writers.Wait()
}

func TestTelemetryLatencyObserveZeroAllocs(t *testing.T) {
	EnableLatency()
	defer DisableLatency()
	if n := testing.AllocsPerRun(100, func() {
		t0 := LatClock()
		StageObserve(1, StageSigFilter, t0)
	}); n != 0 {
		t.Fatalf("StageObserve allocates %v per op", n)
	}
}

func TestTelemetryFlightRecordZeroAllocs(t *testing.T) {
	EnableFlight(1 << 10)
	defer DisableFlight()
	if n := testing.AllocsPerRun(100, func() {
		rec := FlightRecord{Tx: 1, Verdict: FlightAdmitted}
		rec.Mark(StageSigFilter, 100)
		RecordFlight(1, &rec)
	}); n != 0 {
		t.Fatalf("RecordFlight allocates %v per op", n)
	}
}
