package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// The latency, flight and audit recorders are process-wide; these tests
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

func TestTelemetryFlightEpochAndWraparound(t *testing.T) {
	EnableFlight(4)
	defer DisableFlight()
	exerciseRing(t, &fr.ring, 4,
		func(w, seq int) { RecordFlight(w, &FlightRecord{Tx: uint64(seq)}) },
		FlightRecords, func(r FlightRecord) (int, int) { return int(r.Worker), int(r.Tx) })

	EnableFlight(4)
	if FlightEpoch() != 0 {
		t.Fatalf("fresh epoch = %d", FlightEpoch())
	}
	for i := 0; i < 3; i++ {
		rec := FlightRecord{Tx: uint64(i + 1), Verdict: FlightAdmitted}
		rec.Mark(StageSigFilter, 100)
		RecordFlight(0, &rec)
	}
	AdvanceFlightEpoch()
	for i := 3; i < 10; i++ {
		rec := FlightRecord{Tx: uint64(i + 1), Verdict: FlightConflict}
		RecordFlight(0, &rec)
	}
	if FlightEpoch() != 1 {
		t.Fatalf("epoch = %d, want 1", FlightEpoch())
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
		if r.Epoch != 1 {
			t.Fatalf("record %d stamped epoch %d, want 1", r.Tx, r.Epoch)
		}
		if r.Verdict.String() != "conflict" {
			t.Fatalf("verdict: %s", r.Verdict)
		}
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
	before := FlightEpoch()
	AdvanceFlightEpoch()
	if FlightEpoch() != before {
		t.Fatal("disabled epoch advanced")
	}
}

func TestTelemetryAuditTrail(t *testing.T) {
	ResetAudit()
	RecordAudit(AuditEntry{
		Controller: "batch", Window: 256, ConflictRate: 0.002,
		FromRung: 8, ToRung: 32,
		Moved: true, Reason: AuditClimb,
	})
	RecordAudit(AuditEntry{
		Controller: "batch", Window: 256, ConflictRate: 0.02,
		FromRung: 32, ToRung: 32,
		Moved: false, Reason: AuditHold,
	})
	trail := AuditTrail()
	if len(trail) != 2 {
		t.Fatalf("trail length %d", len(trail))
	}
	if trail[0].Reason != AuditClimb || !trail[0].Moved || trail[0].ToRung != 32 {
		t.Fatalf("first entry: %+v", trail[0])
	}
	if trail[0].TS == 0 {
		t.Fatal("entry not timestamped")
	}
	if trail[1].TS < trail[0].TS {
		t.Fatal("trail out of order")
	}
	// Overflow: the ring keeps the newest auditCap entries.
	for i := 0; i < auditCap+10; i++ {
		RecordAudit(AuditEntry{Controller: "shard", Window: i})
	}
	trail = AuditTrail()
	if len(trail) != auditCap {
		t.Fatalf("overflowed trail length %d, want %d", len(trail), auditCap)
	}
	if trail[len(trail)-1].Window != auditCap+9 {
		t.Fatalf("newest entry window %d", trail[len(trail)-1].Window)
	}
	ResetAudit()
	if len(AuditTrail()) != 0 {
		t.Fatal("ResetAudit left entries")
	}

	defer ResetAudit() // exerciseRing leaves the always-on trail disabled
	exerciseRing(t, &audit, auditCap,
		func(w, seq int) { RecordAudit(AuditEntry{FromRung: w, Window: seq}) },
		AuditTrail, func(e AuditEntry) (int, int) { return e.FromRung, e.Window })
}

func TestTelemetryHTTPObservabilityEndpoints(t *testing.T) {
	EnableLatency()
	EnableFlight(64)
	defer DisableLatency()
	defer DisableFlight()
	ResetAudit()
	defer ResetAudit()

	r := NewRegistry()
	router := r.Register("sharded", "set", []string{"add"})
	router.ShardLocal()
	router.ShardCross()
	sh0 := r.Register("cascade", "set", []string{"add"})
	sh0.SetShard(1)
	sh0.IncInvocation()
	sh1 := r.Register("cascade", "set", []string{"add"})
	sh1.SetShard(2)
	sh1.IncInvocation()
	sh1.IncInvocation()
	sh1.IncInvocation()

	StageRecord(0, StageRendezvous, 500)
	rec := FlightRecord{Tx: 7, Det: router.ID(), Verdict: FlightAdmitted, Shards: 0b11}
	rec.Mark(StageRendezvous, 500)
	RecordFlight(0, &rec)
	RecordAudit(AuditEntry{Controller: "shard", Window: 512, ConflictRate: 0.001,
		FromRung: 4, ToRung: 8, Moved: true, Reason: AuditClimb})

	h := Handler(r)
	get := func(path string) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code, w.Body.String()
	}

	code, body := get("/debug/commlat/percentiles")
	if code != 200 {
		t.Fatalf("/percentiles: %d", code)
	}
	var lat LatencySnapshot
	if err := json.Unmarshal([]byte(body), &lat); err != nil {
		t.Fatalf("percentiles JSON: %v", err)
	}
	if !lat.Enabled || len(lat.Stages) == 0 {
		t.Fatalf("percentiles doc: %+v", lat)
	}

	code, body = get("/debug/commlat/flightrec")
	if code != 200 {
		t.Fatalf("/flightrec: %d", code)
	}
	var fd FlightDoc
	if err := json.Unmarshal([]byte(body), &fd); err != nil {
		t.Fatalf("flightrec JSON: %v", err)
	}
	if len(fd.Records) != 1 || fd.Records[0].Verdict != "admitted" {
		t.Fatalf("flight doc: %+v", fd)
	}
	if got := fd.Records[0].Shards; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("shard list: %v", got)
	}
	if fd.Records[0].Detector != "sharded/set" {
		t.Fatalf("detector name: %q", fd.Records[0].Detector)
	}

	code, body = get("/debug/commlat/heatmap")
	if code != 200 {
		t.Fatalf("/heatmap: %d", code)
	}
	var hm HeatmapDoc
	if err := json.Unmarshal([]byte(body), &hm); err != nil {
		t.Fatalf("heatmap JSON: %v", err)
	}
	if len(hm.Routers) != 1 || len(hm.Shards) != 2 {
		t.Fatalf("heatmap doc: %+v", hm)
	}
	if hm.Shards[0].Share+hm.Shards[1].Share < 0.999 {
		t.Fatalf("shares do not cover the group: %+v", hm.Shards)
	}

	code, body = get("/debug/commlat/audit")
	if code != 200 {
		t.Fatalf("/audit: %d", code)
	}
	var ad AuditDoc
	if err := json.Unmarshal([]byte(body), &ad); err != nil {
		t.Fatalf("audit JSON: %v", err)
	}
	if len(ad.Entries) != 1 || ad.Entries[0].Reason != AuditClimb {
		t.Fatalf("audit doc: %+v", ad)
	}

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		"commlat_stage_latency_ns_bucket{stage=\"rendezvous\"",
		"commlat_stage_latency_ns_count{stage=\"rendezvous\"} 1",
		"commlat_flight_epoch 0",
		"commlat_controller_rung{controller=\"shard\"} 8",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTelemetryConcurrentScrape races live recording against the HTTP
// exporters; run under -race it proves the lock-free merge reads and
// ring drains are sound against concurrent writers.
func TestTelemetryConcurrentScrape(t *testing.T) {
	EnableLatency()
	EnableFlight(64)
	defer DisableLatency()
	defer DisableFlight()
	ResetAudit()
	defer ResetAudit()

	r := NewRegistry()
	d := r.Register("cascade", "set", []string{"add"})
	d.SetShard(1)
	h := Handler(r)

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
				if i%64 == 0 {
					AdvanceFlightEpoch()
					RecordAudit(AuditEntry{Controller: "batch", Window: 64, Reason: AuditHold})
				}
			}
		}(w)
	}
	paths := []string{
		"/metrics", "/debug/telemetry", "/debug/commlat/flightrec",
		"/debug/commlat/percentiles", "/debug/commlat/heatmap", "/debug/commlat/audit",
	}
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 15; i++ {
				for _, p := range paths {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest("GET", p, nil))
					if w.Code != 200 {
						t.Errorf("%s: %d", p, w.Code)
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
