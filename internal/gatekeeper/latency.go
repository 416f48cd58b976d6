// Latency-attribution and flight-recorder hooks for the admission
// paths. Callers check the double gate first — obsInstrumented: a live
// LatClock mark (latency on) and/or telemetry.FlightEnabled — so the
// cost on an uninstrumented hot path is the one or two atomic loads of
// the gates themselves, and the instrumented paths stay allocation-free
// (records are stack-built, stage marks are atomic adds into fixed
// arrays).
package gatekeeper

import (
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// obsInstrumented reports whether either recording layer is on for a
// mark taken with LatClock: the caller's t0 carries the latency gate,
// this adds the flight gate.
func obsInstrumented(t0 int64) bool {
	return t0 != 0 || telemetry.FlightEnabled()
}

// since is the time from a LatClock mark to now; a 0 mark (latency was
// off when it was taken) stays 0.
func since(t0 int64) int64 {
	if t0 == 0 {
		return 0
	}
	return telemetry.LatClock() - t0
}

// verdictOf classifies a single admission by its outcome.
func verdictOf(err error) telemetry.FlightVerdict {
	if err != nil {
		return telemetry.FlightConflict
	}
	return telemetry.FlightAdmitted
}

// observe closes one admission's observation. rec arrives filled —
// detector, method, verdict, one Mark per stage traversed — and is the
// one carrier of the stage durations: the stages in hist (a bitmask
// like rec.Stages; the rest were observed where they were timed) go to
// the latency histograms when t0, the caller's LatClock mark, is live,
// and the record goes to the flight ring when the recorder is on.
func observe(tx *engine.Tx, rec *telemetry.FlightRecord, t0 int64, hist uint8) {
	w := tx.Worker()
	if t0 != 0 {
		for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
			if hist&(1<<st) != 0 {
				telemetry.StageRecord(w, st, int64(rec.StageNS[st]))
			}
		}
	}
	if telemetry.FlightEnabled() {
		rec.Tx = tx.ID()
		telemetry.RecordFlight(w, rec)
	}
}
