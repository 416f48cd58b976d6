package adaptive

import (
	"fmt"
	"testing"

	"commlat/internal/telemetry"
	"commlat/internal/workload"
)

func TestControllerClimbsToBest(t *testing.T) {
	// Rung throughputs: 10, 20, 40, 30 — the controller must end up
	// steady on rung 2.
	tp := []float64{10, 20, 40, 30}
	c := NewController(4, 0)
	var visits []int
	cur := c.Current()
	for i := 0; i < 20; i++ {
		visits = append(visits, cur)
		cur = c.Observe(Sample{Rung: cur, Throughput: tp[cur]})
	}
	// The tail must be pinned to rung 2.
	for _, r := range visits[10:] {
		if r != 2 {
			t.Fatalf("controller did not settle on rung 2: visits=%v", visits)
		}
	}
	// All rungs must have been explored at least once.
	seen := map[int]bool{}
	for _, r := range visits {
		seen[r] = true
	}
	for r := 0; r < 4; r++ {
		if !seen[r] {
			t.Errorf("rung %d never probed (visits=%v)", r, visits)
		}
	}
}

func TestControllerDriftsDownWhenLowIsBest(t *testing.T) {
	tp := []float64{50, 20, 10, 5}
	c := NewController(4, 3)
	cur := c.Current()
	for i := 0; i < 20; i++ {
		cur = c.Observe(Sample{Rung: cur, Throughput: tp[cur]})
	}
	if cur != 0 {
		t.Errorf("controller settled on rung %d, want 0", cur)
	}
}

func TestControllerSingleRung(t *testing.T) {
	c := NewController(1, 0)
	if next := c.Observe(Sample{Rung: 0, Throughput: 5}); next != 0 {
		t.Errorf("single rung must stay put, got %d", next)
	}
}

func TestControllerBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewController(2, 5)
}

// TestRunMigratesAndPreservesContents is the integration test: a real
// adaptive run over the default ladder must produce exactly the set a
// single fixed implementation would, regardless of how many times it
// switched rungs.
func TestRunMigratesAndPreservesContents(t *testing.T) {
	ops := workload.SetOpsClasses(6000, 40, 3)
	trace, err := Run(DefaultLadder(), ops, 500, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Samples) != 12 {
		t.Fatalf("epochs = %d, want 12", len(trace.Samples))
	}
	// Reference: contents after applying all adds sequentially.
	want := map[int64]bool{}
	for _, op := range ops {
		if op.Add {
			want[op.X] = true
		}
	}
	got := map[int64]bool{}
	for _, x := range trace.Final.Snapshot() {
		got[x] = true
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("final contents diverged: got %d elements, want %d", len(got), len(want))
	}
	// The run must actually have explored: at least one switch.
	if trace.Switches == 0 {
		t.Error("adaptive run never switched rungs")
	}
	for _, s := range trace.Samples {
		if s.Throughput <= 0 {
			t.Errorf("non-positive throughput in %+v", s)
		}
	}
}

// TestRunAuditsWhatItDid: the audit trail, the run's own switch count
// and the decision events in the trace must agree. Three rungs started
// on rung 0 with two epochs force the case that used to disagree: the
// final epoch always wants to probe unexplored rung 2, and there is no
// epoch left to run it on.
func TestRunAuditsWhatItDid(t *testing.T) {
	telemetry.ResetAudit()
	telemetry.EnableTrace(1<<10, 1)
	defer telemetry.DisableTrace()
	trace, err := Run(DefaultLadder()[:3], workload.SetOpsClasses(400, 10, 1), 200, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	audited := 0
	for _, e := range telemetry.AuditTrail() {
		if e.Moved != (e.FromRung != e.ToRung) {
			t.Errorf("audit entry moved=%v but rung %d -> %d", e.Moved, e.FromRung, e.ToRung)
		}
		if e.Moved {
			audited++
		}
	}
	decisions := 0
	for _, e := range telemetry.TraceEvents() {
		if e.Kind == telemetry.EvDecision {
			decisions++
		}
	}
	if trace.Switches != 1 || audited != trace.Switches || decisions != trace.Switches {
		t.Fatalf("switches %d, audited moves %d, decision events %d; want 1 each", trace.Switches, audited, decisions)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(DefaultLadder(), nil, 0, 4, 0); err == nil {
		t.Error("epoch size 0 should error")
	}
	if _, err := Run(DefaultLadder(), nil, 10, 0, 0); err == nil {
		t.Error("window 0 should error")
	}
}

func TestDefaultLadderSeeds(t *testing.T) {
	for _, rung := range DefaultLadder() {
		s := rung.Make([]int64{1, 2, 3})
		snap := s.Snapshot()
		if len(snap) != 3 {
			t.Errorf("%s: seeded %d elements, want 3", rung.Name, len(snap))
		}
	}
}
