// Flight recorder: a continuously-running fixed ring of the most recent
// admission records, cheap enough to leave on in production. Where the
// event tracer answers "what happened, in order", the flight recorder
// answers "what did the last N admissions cost and why": each record
// carries the verdict, the set of stages the admission traversed with
// per-stage tick counts, the shard set it touched, and how many times
// it was retried.
//
// Records are never released individually: ring wraparound reclaims the
// oldest slots wholesale, and snapshots report the wraparound drop
// count so a consumer can tell a quiet ring from a lapped one.
package telemetry

import "time"

// FlightVerdict classifies how an admission (or admission batch) ended.
type FlightVerdict uint8

// Flight verdicts. The first two classify single admissions; the
// Batch* verdicts classify one InvokeBatch group record by how much of
// the batch was admitted as a group.
const (
	FlightAdmitted    FlightVerdict = iota + 1 // invocation admitted
	FlightConflict                             // invocation rejected (commutativity conflict)
	FlightBatchWhole                           // batch admitted whole
	FlightBatchSplit                           // batch prefix admitted, rest serialized
	FlightBatchSerial                          // batch fully serialized
)

var verdictNames = []string{
	FlightAdmitted: "admitted", FlightConflict: "conflict",
	FlightBatchWhole: "batch_whole", FlightBatchSplit: "batch_split", FlightBatchSerial: "batch_serial",
}

// String returns the export spelling of the verdict.
func (v FlightVerdict) String() string { return enumName(verdictNames, v) }

// FlightRecord is one fixed-size admission record. StageNS holds the
// per-stage tick counts (nanoseconds, saturating at ~4.29s per stage)
// for the stages whose bit is set in Stages; both are filled from the
// same start marks the histograms use, so they are only non-zero while
// latency recording is on (and, on the logged gatekeepers, only for an
// Observed transaction). The gatekeepers record the admissions of
// Observed transactions and every refusal (FlightConflict): no refusal
// is sampled out. Shards is a bitmask of the shard IDs (mod 64) the
// admission touched; 0 for unsharded detectors. N is the batch length
// for Batch* verdicts, 0 for single admissions.
type FlightRecord struct {
	TS      int64 // ns on the latency clock
	Tx      uint64
	StageNS [NumStages]uint32
	Shards  uint64
	Det     uint16
	Method  uint16
	Worker  uint16
	Retries uint16
	N       uint16
	Verdict FlightVerdict
	Stages  uint8 // bitmask: bit i set = Stage(i) traversed
}

// Mark sets a stage's traversed bit and tick count (saturating).
func (r *FlightRecord) Mark(st Stage, ns int64) {
	r.Stages |= 1 << st
	if ns < 0 {
		ns = 0
	}
	if ns > 1<<32-1 {
		ns = 1<<32 - 1
	}
	r.StageNS[st] = uint32(ns)
}

func (r FlightRecord) stamp() int64 { return r.TS }

// fr is the process-wide recorder. Off by default: RecordFlight behind
// FlightEnabled is one atomic load.
var fr = ring[FlightRecord]{shards: make([]ringShard[FlightRecord], ringShards)}

// EnableFlight starts the flight recorder with the given per-worker
// ring capacity (rounded up to a power of two; <=0 means 1<<10
// records). Enabling resets any previous recording.
func EnableFlight(perShard int) {
	if perShard <= 0 {
		perShard = 1 << 10
	}
	fr.enable(perShard)
}

// DisableFlight stops the recorder and releases its rings. Buffered
// records are discarded; call FlightRecords first to keep them.
func DisableFlight() { fr.disable() }

// FlightEnabled reports whether the flight recorder is on. Hot paths
// gate record construction on it, so the disabled cost is this one
// atomic load.
//
//commvet:gate
func FlightEnabled() bool { return fr.enabled.Load() }

// RecordFlight stamps the record with the clock and appends it to the worker's ring, overwriting the oldest slot when
// full (wholesale reclamation — no per-record release). Callers gate on
// FlightEnabled before building the record.
//
//commvet:observation
func RecordFlight(worker int, rec *FlightRecord) {
	if !fr.enabled.Load() {
		return
	}
	rec.TS = int64(time.Since(latBase))
	rec.Worker = uint16(worker & (ringShards - 1))
	fr.put(worker, rec)
}

// FlightRecords drains a copy of the buffered records, oldest first,
// merged across worker rings in timestamp order. The recorder keeps
// running.
func FlightRecords() []FlightRecord { return fr.drain() }

// FlightDropped reports how many records ring wraparound has reclaimed
// since EnableFlight.
func FlightDropped() uint64 { return fr.dropped() }
