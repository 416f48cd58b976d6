// Controller audit trail: a small always-on ring of adaptive-controller
// decisions, so a ladder move is explainable after the fact. Each entry
// records the window observation that triggered the evaluation (the
// conflict rate), what the controller did about it, and the rung chosen
// — including "hold" evaluations, since the absence of a move under a
// suspicious rate is exactly what an operator wants to audit.
//
// Controllers decide at most once per observation window (hundreds of
// admissions), so the ring is always enabled: one mutex acquisition per
// window evaluation is noise, and entries reference only static strings
// (controller names, reasons), so recording never allocates.
package telemetry

import "time"

// Audit reasons — what the controller did with the window's observation.
const (
	AuditClimb   = "climb"   // moved to a more permissive rung
	AuditBackoff = "backoff" // retreated to a safer rung
	AuditHold    = "hold"    // stayed put
)

// AuditEntry is one controller window evaluation. FromRung/ToRung are
// rung *values* (batch size, shard count, or ladder rung index) rather
// than positions, so the trail reads without the ladder at hand.
type AuditEntry struct {
	TS           int64   `json:"ts_ns"`
	Controller   string  `json:"controller"`
	Det          uint16  `json:"detector_id,omitempty"`
	Window       int     `json:"window"`
	ConflictRate float64 `json:"conflict_rate"`
	FromRung     int     `json:"from_rung"`
	ToRung       int     `json:"to_rung"`
	Moved        bool    `json:"moved"`
	Reason       string  `json:"reason"`
}

func (e AuditEntry) stamp() int64 { return e.TS }

// auditCap bounds the trail. A controller evaluates once per window
// (256–512 admissions), so 1024 entries cover hundreds of thousands of
// admissions of history.
const auditCap = 1024

// audit is a single shard: every controller writes as worker 0.
var audit = ring[AuditEntry]{shards: make([]ringShard[AuditEntry], 1)}

func init() { audit.enable(auditCap) }

// RecordAudit appends one evaluation to the trail, stamping its clock.
// The ring overwrites oldest-first; like the flight rings there is no
// per-entry reclamation.
func RecordAudit(e AuditEntry) {
	e.TS = int64(time.Since(latBase))
	audit.put(0, &e)
}

// AuditTrail returns a copy of the buffered evaluations, oldest first.
func AuditTrail() []AuditEntry { return audit.drain() }

// ResetAudit clears the trail (tests and fresh CLI runs).
func ResetAudit() { audit.enable(auditCap) }
