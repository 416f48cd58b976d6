// Latency-attribution and flight-recorder hooks for the admission
// paths. Every helper here sits behind a double gate the callers check
// first — a 0 LatClock mark (latency off) and/or telemetry.FlightEnabled
// (flight off) — so the cost on an uninstrumented hot path is the one
// or two atomic loads of the gates themselves, and the instrumented
// paths stay allocation-free (records are stack-built, stage marks are
// atomic adds into fixed arrays).
package gatekeeper

import (
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// obsFast records the stage-1 latency and flight record of a fast-path
// admission (signature filter only). Called only when t0 != 0 or the
// flight recorder is on.
func (c *Cascade) obsFast(tx *engine.Tx, mid uint16, t0 int64) {
	w := tx.Worker()
	t1 := telemetry.StageObserve(w, telemetry.StageSigFilter, t0)
	if telemetry.FlightEnabled() {
		rec := telemetry.FlightRecord{
			Tx: tx.ID(), Det: c.tele.ID(), Method: mid,
			Verdict: telemetry.FlightAdmitted,
		}
		rec.Mark(telemetry.StageSigFilter, t1-t0)
		telemetry.RecordFlight(w, &rec)
	}
}

// obsSlow records the stage latencies and flight record of a slow-path
// admission: t0→t1 is the signature-filter stage (already observed by
// the caller), t1→now less the precise time accumulated in sc is the
// optimistic-index stage (the precise checks themselves were observed
// one by one in runCheck). Called only when t1 != 0 or the flight
// recorder is on.
func (c *Cascade) obsSlow(tx *engine.Tx, mid uint16, t0, t1 int64, sc *cascadeScratch, err error) {
	w := tx.Worker()
	var optNS int64
	if t1 != 0 {
		optNS = telemetry.LatClock() - t1 - sc.preciseNS
		telemetry.StageRecord(w, telemetry.StageOptIndex, optNS)
	}
	if telemetry.FlightEnabled() {
		rec := telemetry.FlightRecord{
			Tx: tx.ID(), Det: c.tele.ID(), Method: mid,
			Verdict: telemetry.FlightAdmitted, Retries: sc.retries,
		}
		if err != nil {
			rec.Verdict = telemetry.FlightConflict
		}
		rec.Mark(telemetry.StageSigFilter, t1-t0)
		rec.Mark(telemetry.StageOptIndex, optNS)
		rec.Mark(telemetry.StagePrecise, sc.preciseNS)
		telemetry.RecordFlight(w, &rec)
	}
}

// obsInstrumented reports whether either recording layer is on for a
// mark taken with LatClock: the caller's t0 carries the latency gate,
// this adds the flight gate.
func obsInstrumented(t0 int64) bool {
	return t0 != 0 || telemetry.FlightEnabled()
}

// obsBatch records the publish/probe phase latencies and one group
// flight record for a batched admission of n members, of which grouped
// were admitted as a group. tpub and tprobe are the LatClock marks at
// the start of the publish and probe phases (0 = latency off); the
// probe phase ends here.
func (c *Cascade) obsBatch(tx *engine.Tx, mid uint16, n, grouped int, tpub, tprobe int64) {
	w := tx.Worker()
	var pubNS, probeNS int64
	if tpub != 0 {
		pubNS = tprobe - tpub
		probeNS = telemetry.LatClock() - tprobe
		telemetry.StageRecord(w, telemetry.StageBatchPublish, pubNS)
		telemetry.StageRecord(w, telemetry.StageBatchProbe, probeNS)
	}
	if telemetry.FlightEnabled() {
		verdict := telemetry.FlightBatchWhole
		switch {
		case grouped == 0:
			verdict = telemetry.FlightBatchSerial
		case grouped < n:
			verdict = telemetry.FlightBatchSplit
		}
		rec := telemetry.FlightRecord{
			Tx: tx.ID(), Det: c.tele.ID(), Method: mid,
			Verdict: verdict, N: uint16(n),
		}
		rec.Mark(telemetry.StageBatchPublish, pubNS)
		rec.Mark(telemetry.StageBatchProbe, probeNS)
		telemetry.RecordFlight(w, &rec)
	}
}

// obsInvoke records a forward/general gatekeeper admission. The whole
// mutex-held check-execute-log sequence is one precise evaluation, so
// it lands in the precise-check stage.
func (l *logged) obsInvoke(tx *engine.Tx, mid uint16, t0 int64, err error) {
	w := tx.Worker()
	var d int64
	if t0 != 0 {
		d = telemetry.StageObserve(w, telemetry.StagePrecise, t0) - t0
	}
	if telemetry.FlightEnabled() {
		rec := telemetry.FlightRecord{
			Tx: tx.ID(), Det: l.tele.ID(), Method: mid,
			Verdict: telemetry.FlightAdmitted,
		}
		if err != nil {
			rec.Verdict = telemetry.FlightConflict
		}
		rec.Mark(telemetry.StagePrecise, d)
		telemetry.RecordFlight(w, &rec)
	}
}

// obsRendezvous records the rendezvous-stage latency and flight record
// of one cross-shard admission. t0 spans the whole rendezvous (ticket
// acquisition through verdict); shards is the bitmask of shard IDs
// (mod 64) the admission touched.
func obsRendezvous(tx *engine.Tx, det *telemetry.Detector, mid uint16, t0 int64, shards uint64, err error) {
	w := tx.Worker()
	var durNS int64
	if t0 != 0 {
		durNS = telemetry.StageObserve(w, telemetry.StageRendezvous, t0) - t0
	}
	if telemetry.FlightEnabled() {
		rec := telemetry.FlightRecord{
			Tx: tx.ID(), Det: det.ID(), Method: mid,
			Verdict: telemetry.FlightAdmitted, Shards: shards,
		}
		if err != nil {
			rec.Verdict = telemetry.FlightConflict
		}
		rec.Mark(telemetry.StageRendezvous, durNS)
		telemetry.RecordFlight(w, &rec)
	}
}
