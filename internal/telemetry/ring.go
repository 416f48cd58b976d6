package telemetry

import (
	"sync/atomic"
	"time"
)

// EventKind classifies a traced event.
type EventKind uint8

// Event kinds. Begin/Commit/Abort are transaction lifecycle; Conflict is
// a detector rejecting an invocation.
const (
	EvBegin EventKind = iota + 1
	EvCommit
	EvAbort
	EvConflict
)

var kindNames = []string{EvBegin: "begin", EvCommit: "commit", EvAbort: "abort", EvConflict: "conflict"}

// String returns the JSONL spelling of the kind.
func (k EventKind) String() string { return enumName(kindNames, k) }

// enumName spells an enum value from its name table. A value the table
// does not name is "unknown" — the one sentinel consumers that range
// over a vocabulary (scripts/tracecheck) stop at.
func enumName[E ~uint8](names []string, v E) string {
	if int(v) < len(names) && names[v] != "" {
		return names[v]
	}
	return "unknown"
}

// Event is one fixed-size trace record. M1/M2 are label IDs in the
// detector Det's vocabulary (method pair for gatekeepers, mode pair for
// lock managers); Det 0 is the engine.
type Event struct {
	TS     int64 // nanoseconds since the trace was enabled
	Tx     uint64
	Item   int64
	Det    uint16
	M1, M2 uint16
	Worker uint16
	Kind   EventKind
}

func (e Event) stamp() int64 { return e.TS }

// tracer is the process-wide event trace. Off by default: Emit is one
// atomic load. When enabled, events land in per-worker rings sized at
// EnableTrace time; a full ring overwrites its oldest events, so a
// trace is always the most recent window.
type tracer struct {
	ring[Event]
	sample  atomic.Uint64
	startNS atomic.Int64 // the latency clock's reading at EnableTrace
}

var tr = tracer{ring: ring[Event]{shards: make([]ringShard[Event], ringShards)}}

// EnableTrace turns event tracing on with the given per-worker ring
// capacity (rounded up to a power of two; <=0 means 1<<14 events) and
// sampling rate: sample N keeps roughly one in N transactions (their
// begin/commit/abort/conflict events as a unit, so traces stay
// pairable); N <= 1 keeps everything. Enabling resets any previous
// trace.
func EnableTrace(perShard, sample int) {
	if perShard <= 0 {
		perShard = 1 << 14
	}
	if sample < 1 {
		sample = 1
	}
	tr.enabled.Store(false)
	tr.sample.Store(uint64(sample))
	tr.startNS.Store(int64(time.Since(latBase)))
	tr.enable(perShard)
}

// DisableTrace turns event tracing off and releases the ring buffers.
// Buffered events are discarded; call TraceEvents first to keep them.
func DisableTrace() { tr.disable() }

// TraceEnabled reports whether event tracing is on.
//
//commvet:gate
func TraceEnabled() bool { return tr.enabled.Load() }

// Emit records one event into the worker's ring. With tracing disabled
// this is a single atomic load; enabled, it allocates nothing and reads
// one monotonic clock, so a wall-clock step cannot reorder the trace.
// The transaction-ID sampling filter keeps a transaction's events
// together.
//
//commvet:observation
func Emit(worker int, kind EventKind, tx uint64, item int64, det, m1, m2 uint16) {
	if !tr.enabled.Load() {
		return
	}
	if s := tr.sample.Load(); s > 1 && tx%s != 0 {
		return
	}
	tr.put(worker, &Event{
		TS: int64(time.Since(latBase)) - tr.startNS.Load(), Tx: tx, Item: item, Det: det, M1: m1, M2: m2,
		Worker: uint16(worker & (ringShards - 1)), Kind: kind,
	})
}

// EmitConflict records a detector conflict event.
//
//commvet:observation
func EmitConflict(worker int, tx uint64, item int64, det, m1, m2 uint16) {
	Emit(worker, EvConflict, tx, item, det, m1, m2)
}

// TraceEvents drains a copy of the buffered events, oldest first,
// merged across shards in timestamp order. The trace keeps running;
// call DisableTrace to stop it.
func TraceEvents() []Event { return tr.drain() }

// TraceDropped reports how many events have been overwritten by ring
// wraparound since EnableTrace.
func TraceDropped() uint64 { return tr.dropped() }
