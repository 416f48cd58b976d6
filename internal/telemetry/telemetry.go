// Package telemetry is the runtime's zero-allocation instrumentation
// layer: per-detector conflict-attribution counters, engine transaction
// counters, a per-worker ring-buffer event trace, and exporters (Chrome
// trace_event JSON, JSONL, Prometheus text, expvar).
//
// The paper's whole argument (§5) is that a specification's position on
// the commutativity lattice shows up as measurable abort ratios and
// overheads. This package makes those quantities observable per method
// pair, lock mode and detector instead of as two aggregate numbers: a
// run can report "92% of aborts were add/remove" and time-stamped
// begin/commit/abort/conflict events, without perturbing the hot paths
// it measures.
//
// Design constraints:
//
//   - Counters are fixed-slot atomic arrays indexed by compiled method
//     (or mode) IDs assigned at detector construction; the hot path
//     performs array-indexed atomic adds only, never a map lookup or an
//     allocation.
//   - Event tracing is off by default. Disabled, an emission is one
//     atomic load; enabled, it is a couple of mutex-guarded stores into
//     a preallocated per-worker ring — still allocation-free.
//   - The package depends only on the standard library, so every layer
//     (engine, gatekeepers, lock manager, adaptive controller) can use
//     it without import cycles.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// maxDetectors caps how many detector instances the registry lists.
// Detectors registered past the cap still count (their arrays work);
// they are just absent from snapshots and exports — a backstop against
// unbounded registry growth in fuzzers and long benchmark sweeps that
// construct detectors in a loop.
const maxDetectors = 4096

// Registry tracks live detector instances for snapshotting and export.
// The process-wide Default registry is what the engine, gatekeepers and
// CLI use; tests build private registries for deterministic output.
type Registry struct {
	mu   sync.Mutex
	dets []*Detector

	// Engine-level transaction counters (process-wide on Default).
	txBegun     atomic.Uint64
	txCommitted atomic.Uint64
	txAborted   atomic.Uint64
}

// Default is the process-wide registry.
var Default = NewRegistry()

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Detector holds the fixed-slot counters of one conflict-detector
// instance. Labels are the detector's vocabulary: method names for
// gatekeepers, lock-mode names for abstract-lock managers, rung names
// for the adaptive controller. Pair counters are indexed
// labelID1*n + labelID2; IDs are positions in the label list, compiled
// into the detector's plans at construction time.
type Detector struct {
	id     uint16
	kind   string // "forward", "general", "abslock", "adaptive", ...
	adt    string // guarded ADT / scheme name
	labels []string
	n      int

	invocations atomic.Uint64
	checks      atomic.Uint64
	conflicts   atomic.Uint64
	rollbacks   atomic.Uint64
	logEntries  atomic.Uint64
	probes      atomic.Uint64
	collisions  atomic.Uint64
	fallbacks   atomic.Uint64
	activeHW    atomic.Int64 // active-log size high-water mark
	journalHW   atomic.Int64 // journal length high-water mark

	// Cascade stage counters (lattice-cascade detectors only): how far
	// down the filter pipeline each invocation had to fall.
	fastAdmits  atomic.Uint64 // stage 1: signature-filter misses admitted lock-free
	filterHits  atomic.Uint64 // stage 1 hits that fell through to stage 2
	optScans    atomic.Uint64 // stage 2: optimistic lock-free bucket/chain scans
	optRetries  atomic.Uint64 // stage 2: version-stamp races retried or re-pinned
	cascadeSlow atomic.Uint64 // stage 3 fallbacks through the overflow mutex path

	// reentrant counts lock acquisitions granted against a hold the
	// transaction already had (abstract-lock managers only): covered
	// re-acquisitions and in-place mode upgrades, neither of which
	// reaches a stripe mutex.
	reentrant atomic.Uint64

	// Batch admission counters (batched detectors only): how each
	// admission batch fared as a group.
	batchWhole  atomic.Uint64 // batches admitted whole (every member grouped)
	batchSplit  atomic.Uint64 // batches split (a prefix grouped, the rest serialized)
	batchSerial atomic.Uint64 // batches fully serialized (no member grouped)

	// Shard routing counters (sharded detectors only). On a router
	// detector, shardLocal/shardCross classify admissions by whether
	// every key landed in one shard; shard (1-based, set once at
	// construction) marks a per-shard member detector's position.
	shard      atomic.Int64
	shardLocal atomic.Uint64 // admissions routed to a single shard
	shardCross atomic.Uint64 // admissions that crossed shards (rendezvous)

	pairChecks    []atomic.Uint64 // n*n, by (first, second) label ID
	pairConflicts []atomic.Uint64 // n*n
	acquired      []atomic.Uint64 // n, per label (lock modes)
	waits         []atomic.Uint64 // n, failed acquisitions per label
}

// Register creates a detector with the given vocabulary on the Default
// registry.
func Register(kind, adt string, labels []string) *Detector {
	return Default.Register(kind, adt, labels)
}

// Register creates a detector with the given vocabulary. The returned
// detector's counter methods are safe for concurrent use immediately.
func (r *Registry) Register(kind, adt string, labels []string) *Detector {
	n := len(labels)
	d := &Detector{
		kind:          kind,
		adt:           adt,
		labels:        labels,
		n:             n,
		pairChecks:    make([]atomic.Uint64, n*n),
		pairConflicts: make([]atomic.Uint64, n*n),
		acquired:      make([]atomic.Uint64, n),
		waits:         make([]atomic.Uint64, n),
	}
	r.mu.Lock()
	if len(r.dets) < maxDetectors {
		d.id = uint16(len(r.dets) + 1) // ID 0 is reserved for the engine
		r.dets = append(r.dets, d)
	}
	r.mu.Unlock()
	return d
}

// ID returns the detector's registry ID (0 if unlisted).
func (d *Detector) ID() uint16 { return d.id }

// Kind returns the detector kind ("forward", "general", "abslock", ...).
func (d *Detector) Kind() string { return d.kind }

// ADT returns the guarded ADT or scheme name.
func (d *Detector) ADT() string { return d.adt }

// IncInvocation counts one guarded invocation.
func (d *Detector) IncInvocation() { d.invocations.Add(1) }

// IncLogEntry counts one logged primitive-function result.
func (d *Detector) IncLogEntry() { d.logEntries.Add(1) }

// IncRollback counts one journal rollback sweep.
func (d *Detector) IncRollback() { d.rollbacks.Add(1) }

// IncProbe counts one indexed pair lookup.
func (d *Detector) IncProbe() { d.probes.Add(1) }

// IncCollision counts one active entry surfaced by a probe.
func (d *Detector) IncCollision() { d.collisions.Add(1) }

// IncFallbackScan counts one full active-list scan.
func (d *Detector) IncFallbackScan() { d.fallbacks.Add(1) }

// CascadeFastAdmit counts one invocation admitted by the signature
// filter alone (stage 1 miss, zero locks taken).
func (d *Detector) CascadeFastAdmit() { d.fastAdmits.Add(1) }

// CascadeFilterHit counts one signature-filter hit that fell through
// to the optimistic read path.
func (d *Detector) CascadeFilterHit() { d.filterHits.Add(1) }

// CascadeScan counts one optimistic lock-free scan of a bucket or
// method chain (stage 2).
func (d *Detector) CascadeScan() { d.optScans.Add(1) }

// CascadeRetry counts one version-stamp race on the optimistic read
// path: a chain traversal restarted or a pin attempt respun.
func (d *Detector) CascadeRetry() { d.optRetries.Add(1) }

// CascadeFallback counts one invocation that took the mutex-guarded
// overflow path (slot table exhausted or conflict keys unhashable).
func (d *Detector) CascadeFallback() { d.cascadeSlow.Add(1) }

// addN is the batch form of a counter increment: n events in one atomic
// add. A non-positive n counts nothing rather than wrapping the counter.
func addN(c *atomic.Uint64, n int) {
	if n > 0 {
		c.Add(uint64(n))
	}
}

// ReentrantHitN counts n lock acquisitions granted against the
// transaction's own existing hold (one atomic add per invocation).
func (d *Detector) ReentrantHitN(n int) { addN(&d.reentrant, n) }

// CascadeFastAdmitN counts n invocations admitted by the signature
// filter alone in one batch probe (one atomic add for the group).
func (d *Detector) CascadeFastAdmitN(n int) { addN(&d.fastAdmits, n) }

// IncInvocationN counts n guarded invocations arriving as one batch.
func (d *Detector) IncInvocationN(n int) { addN(&d.invocations, n) }

// BatchWhole counts one admission batch whose every member was admitted
// as a group.
func (d *Detector) BatchWhole() { d.batchWhole.Add(1) }

// BatchSplit counts one admission batch that admitted a non-empty
// prefix as a group and serialized the rest.
func (d *Detector) BatchSplit() { d.batchSplit.Add(1) }

// BatchSerialized counts one admission batch that admitted no member as
// a group (the whole batch ran the serial path).
func (d *Detector) BatchSerialized() { d.batchSerial.Add(1) }

// SetShard marks a per-shard member detector's 1-based position inside
// a sharded router (0 = not a shard member). Called once at
// construction, before the detector sees traffic.
func (d *Detector) SetShard(i int) { d.shard.Store(int64(i)) }

// ShardLocal counts one admission whose keys all landed in one shard
// (the contention-free single-writer path).
func (d *Detector) ShardLocal() { d.shardLocal.Add(1) }

// ShardLocalN counts n single-shard admissions arriving as one batch
// run (one atomic add for the group).
func (d *Detector) ShardLocalN(n int) { addN(&d.shardLocal, n) }

// ShardCross counts one admission whose keys straddled shards (or whose
// method is not key-routable): the rendezvous path.
func (d *Detector) ShardCross() { d.shardCross.Add(1) }

// ShardLocals returns the single-shard admission count (for tests).
func (d *Detector) ShardLocals() uint64 { return d.shardLocal.Load() }

// ShardCrossings returns the cross-shard admission count (for tests).
func (d *Detector) ShardCrossings() uint64 { return d.shardCross.Load() }

// Check counts one pairwise commutativity evaluation of (first m1,
// incoming m2), attributing it to the pair. The adaptive controller
// reuses it to count rung transitions.
func (d *Detector) Check(m1, m2 uint16) {
	d.checks.Add(1)
	if i := int(m1)*d.n + int(m2); i < len(d.pairChecks) {
		d.pairChecks[i].Add(1)
	}
}

// Conflict counts one rejected invocation, attributed to the pair
// (first m1, incoming m2) — for lock managers, to the mode pair (held
// m1, acquiring m2).
func (d *Detector) Conflict(m1, m2 uint16) {
	d.conflicts.Add(1)
	if i := int(m1)*d.n + int(m2); i < len(d.pairConflicts) {
		d.pairConflicts[i].Add(1)
	}
}

// ModeAcquire counts one successful acquisition of the given mode.
func (d *Detector) ModeAcquire(mode uint16) {
	if int(mode) < len(d.acquired) {
		d.acquired[mode].Add(1)
	}
}

// ModeWait counts one failed (would-block) acquisition of the given
// mode; under optimistic execution a "wait" surfaces as an abort.
func (d *Detector) ModeWait(mode uint16) {
	if int(mode) < len(d.waits) {
		d.waits[mode].Add(1)
	}
}

// ObserveActive raises the active-log high-water mark to n if higher.
// Single-writer per detector (called under the detector's own mutex),
// so a load-compare-store suffices; concurrent snapshot reads are safe.
func (d *Detector) ObserveActive(n int) {
	if v := int64(n); v > d.activeHW.Load() {
		d.activeHW.Store(v)
	}
}

// ObserveJournal raises the journal-length high-water mark to n.
func (d *Detector) ObserveJournal(n int) {
	if v := int64(n); v > d.journalHW.Load() {
		d.journalHW.Store(v)
	}
}

// Invocations returns the invocation count (for tests).
func (d *Detector) Invocations() uint64 { return d.invocations.Load() }

// Conflicts returns the conflict count (for tests).
func (d *Detector) Conflicts() uint64 { return d.conflicts.Load() }

// --- Engine transaction counters ----------------------------------------

// CountTxBegin counts one transaction start on the Default registry.
func CountTxBegin() { Default.txBegun.Add(1) }

// TxCommit counts a commit and, when tracing is on, emits its event.
func TxCommit(worker int, tx uint64, item int64) {
	Default.txCommitted.Add(1)
	if TraceEnabled() {
		Emit(worker, EvCommit, tx, item, 0, 0, 0)
	}
}

// TxAbort counts an abort and, when tracing is on, emits its event.
func TxAbort(worker int, tx uint64, item int64) {
	Default.txAborted.Add(1)
	if TraceEnabled() {
		Emit(worker, EvAbort, tx, item, 0, 0, 0)
	}
}

// CountTxBeginN counts n transaction starts with one atomic add — the
// batch mirror of CountTxBegin.
func CountTxBeginN(n int) { Default.txBegun.Add(uint64(n)) }

// CountTxCommits counts n commits with one atomic add — the group-commit
// path, used when tracing is off and no per-transaction events are due.
func CountTxCommits(n int) { addN(&Default.txCommitted, n) }

// --- Snapshots -----------------------------------------------------------

// PairStat is one method (or mode) pair's attribution counters.
type PairStat struct {
	M1        string `json:"m1"`
	M2        string `json:"m2"`
	Checks    uint64 `json:"checks"`
	Conflicts uint64 `json:"conflicts"`
}

// ModeStat is one lock mode's acquisition counters.
type ModeStat struct {
	Mode     string `json:"mode"`
	Acquired uint64 `json:"acquired"`
	Waits    uint64 `json:"waits"`
}

// DetectorSnapshot is a consistent-enough copy of one detector's
// counters (each counter is read atomically; the set is not a single
// atomic cut, which monitoring does not need).
type DetectorSnapshot struct {
	ID               uint16     `json:"id"`
	Kind             string     `json:"kind"`
	ADT              string     `json:"adt"`
	Invocations      uint64     `json:"invocations"`
	Checks           uint64     `json:"checks"`
	Conflicts        uint64     `json:"conflicts"`
	Rollbacks        uint64     `json:"rollbacks,omitempty"`
	LogEntries       uint64     `json:"log_entries,omitempty"`
	Probes           uint64     `json:"probes,omitempty"`
	Collisions       uint64     `json:"collisions,omitempty"`
	FallbackScans    uint64     `json:"fallback_scans,omitempty"`
	FastAdmits       uint64     `json:"cascade_fast_admits,omitempty"`
	FilterHits       uint64     `json:"cascade_filter_hits,omitempty"`
	OptScans         uint64     `json:"cascade_opt_scans,omitempty"`
	OptRetries       uint64     `json:"cascade_opt_retries,omitempty"`
	CascadeFallbacks uint64     `json:"cascade_fallbacks,omitempty"`
	ReentrantHits    uint64     `json:"reentrant_hits,omitempty"`
	BatchesWhole     uint64     `json:"batches_whole,omitempty"`
	BatchesSplit     uint64     `json:"batches_split,omitempty"`
	BatchesSerial    uint64     `json:"batches_serialized,omitempty"`
	Shard            int64      `json:"shard,omitempty"`
	ShardLocal       uint64     `json:"shard_local,omitempty"`
	ShardCross       uint64     `json:"shard_cross,omitempty"`
	ActiveHighWater  int64      `json:"active_high_water,omitempty"`
	JournalHighWater int64      `json:"journal_high_water,omitempty"`
	Pairs            []PairStat `json:"pairs,omitempty"`
	Modes            []ModeStat `json:"modes,omitempty"`
}

// Snapshot copies the detector's counters, keeping only non-zero pair
// and mode rows.
func (d *Detector) Snapshot() DetectorSnapshot {
	s := DetectorSnapshot{
		ID:               d.id,
		Kind:             d.kind,
		ADT:              d.adt,
		Invocations:      d.invocations.Load(),
		Checks:           d.checks.Load(),
		Conflicts:        d.conflicts.Load(),
		Rollbacks:        d.rollbacks.Load(),
		LogEntries:       d.logEntries.Load(),
		Probes:           d.probes.Load(),
		Collisions:       d.collisions.Load(),
		FallbackScans:    d.fallbacks.Load(),
		FastAdmits:       d.fastAdmits.Load(),
		FilterHits:       d.filterHits.Load(),
		OptScans:         d.optScans.Load(),
		OptRetries:       d.optRetries.Load(),
		CascadeFallbacks: d.cascadeSlow.Load(),
		ReentrantHits:    d.reentrant.Load(),
		BatchesWhole:     d.batchWhole.Load(),
		BatchesSplit:     d.batchSplit.Load(),
		BatchesSerial:    d.batchSerial.Load(),
		Shard:            d.shard.Load(),
		ShardLocal:       d.shardLocal.Load(),
		ShardCross:       d.shardCross.Load(),
		ActiveHighWater:  d.activeHW.Load(),
		JournalHighWater: d.journalHW.Load(),
	}
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			c, x := d.pairChecks[i*d.n+j].Load(), d.pairConflicts[i*d.n+j].Load()
			if c != 0 || x != 0 {
				s.Pairs = append(s.Pairs, PairStat{M1: d.labels[i], M2: d.labels[j], Checks: c, Conflicts: x})
			}
		}
	}
	for i := 0; i < d.n; i++ {
		a, w := d.acquired[i].Load(), d.waits[i].Load()
		if a != 0 || w != 0 {
			s.Modes = append(s.Modes, ModeStat{Mode: d.labels[i], Acquired: a, Waits: w})
		}
	}
	return s
}

// EngineSnapshot is the engine-level transaction counters.
type EngineSnapshot struct {
	TxBegun     uint64 `json:"tx_begun"`
	TxCommitted uint64 `json:"tx_committed"`
	TxAborted   uint64 `json:"tx_aborted"`
}

// Snapshot copies every registered detector's counters plus the engine
// counters, for programmatic use, expvar, and the HTTP exporters.
type Snapshot struct {
	Engine    EngineSnapshot     `json:"engine"`
	Detectors []DetectorSnapshot `json:"detectors"`
}

// Snapshot captures the registry's current counter values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	dets := make([]*Detector, len(r.dets))
	copy(dets, r.dets)
	r.mu.Unlock()
	s := Snapshot{Engine: EngineSnapshot{
		TxBegun:     r.txBegun.Load(),
		TxCommitted: r.txCommitted.Load(),
		TxAborted:   r.txAborted.Load(),
	}}
	for _, d := range dets {
		s.Detectors = append(s.Detectors, d.Snapshot())
	}
	return s
}

// label resolves a detector's label ID to its name, for the exporters.
func (r *Registry) label(det, id uint16) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if det == 0 || int(det) > len(r.dets) {
		return ""
	}
	d := r.dets[det-1]
	if int(id) >= len(d.labels) {
		return ""
	}
	return d.labels[id]
}

// detName resolves a detector ID to "kind/adt", or "" for the engine.
func (r *Registry) detName(det uint16) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if det == 0 || int(det) > len(r.dets) {
		return ""
	}
	d := r.dets[det-1]
	return d.kind + "/" + d.adt
}
