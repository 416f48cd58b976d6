// Package engine provides the speculative-execution substrate the paper's
// conflict detectors plug into: transactions with inverse-method undo
// logs, commit/abort lifecycle hooks, and a worklist executor that runs
// iterations optimistically and retries them on conflict with randomized
// backoff. It plays the role the Galois system plays in the paper's
// evaluation (§5).
package engine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"commlat/internal/telemetry"
)

// ErrConflict is the sentinel every conflict error wraps (see
// ConflictError), returned by conflict detectors when a method
// invocation does not commute with a concurrently executing transaction.
// The executor responds by aborting and retrying the current
// transaction.
var ErrConflict = errors.New("engine: conflict")

// ConflictError is the typed conflict a detector returns: which live
// transaction refused the invocation, and a description that is only
// formatted if somebody reads it. Detectors build one inside their
// critical section on every refusal and the executor retries without
// ever printing it, so construction does no formatting.
// errors.Is(err, ErrConflict) matches it.
type ConflictError struct {
	// Holder is the id of the live transaction whose record refused the
	// invocation.
	Holder uint64
	format string
	args   []any
}

func (e *ConflictError) Error() string {
	msg := ErrConflict.Error() + ": " + fmt.Sprintf(e.format, e.args...)
	if e.Holder != 0 {
		msg += fmt.Sprintf(" (tx %d)", e.Holder)
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrConflict) hold.
func (e *ConflictError) Unwrap() error { return ErrConflict }

// ConflictBy returns a ConflictError naming the transaction that holds
// the conflicting record; Error appends it to the description. Arguments
// are formatted when Error is called: pass values, not pointers to state
// the caller goes on to recycle.
func ConflictBy(holder uint64, format string, args ...any) error {
	return &ConflictError{Holder: holder, format: format, args: args}
}

// IsConflict reports whether err denotes a speculation conflict.
func IsConflict(err error) bool { return errors.Is(err, ErrConflict) }

var txIDs atomic.Uint64

// AlignTxIDs skips at most seven ids, so that the next transaction begun
// is one telemetry.Observed picks. A run calls it as it starts: which of
// its transactions the stage histograms and the flight recorder observe
// then depends on the run alone, not on how many transactions the
// process began before it, and a one-worker run repeated on the same
// input observes the same transactions. The instrumented benchmarks call
// it before each transaction they measure, so that every one is observed.
func AlignTxIDs() {
	for {
		cur := txIDs.Load()
		next := cur
		for !telemetry.Observed(next + 1) {
			next++
		}
		if next == cur || txIDs.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Status is the lifecycle state of a transaction.
type Status int

// Transaction lifecycle states.
const (
	Active Status = iota
	Committed
	Aborted
)

// Undoer is a detector (or data structure) that rolls back its state for
// an aborting transaction from data it keeps (an UndoLog, say). OnUndoer
// stores a pointer receiver inline: no closure, no allocation.
type Undoer interface {
	UndoTx(tx *Tx)
}

// Releaser is a detector that must be notified when a transaction ends
// (by commit or abort): lock release, gatekeeper log cleanup, and so on.
type Releaser interface {
	ReleaseTx(tx *Tx)
}

// attachment is one detector-owned word of per-transaction storage
// (see Tx.Attach).
type attachment struct {
	owner any
	word  uint64
}

// Tx is a speculative transaction. A transaction accumulates undo actions
// (inverse methods, per §3.3.2) as it mutates shared structures and
// release hooks from the conflict detectors guarding those structures.
// On abort, undo actions run in LIFO order and then release hooks run;
// on commit only the release hooks run.
//
// A Tx is not safe for concurrent use by multiple goroutines; each
// speculative iteration owns its transaction.
type Tx struct {
	id      uint64
	undo    []Undoer
	release []Releaser
	end     Releaser // single-owner end hook; see OnEnd
	endWord uint64   // scratch word owned by the end releaser; see EndWord
	attach  []attachment
	status  Status
	sealed  bool              // wrote state with no undo; see Seal
	worker  int32             // executor worker running this tx (0 when hand-driven)
	item    int64             // traced work-item key (-1 when unknown)
	tallies []telemetry.Tally // any but the first detector's pending counts
	tally   telemetry.Tally   // the first detector's; see Tally
}

// NewTx creates a fresh active transaction.
func NewTx() *Tx {
	telemetry.CountTxBegin()
	return &Tx{id: txIDs.Add(1), item: -1}
}

// GetTx returns an active transaction from the shared pool. Pair it with
// PutTx after Commit or Abort; a steady-state caller then allocates
// nothing per transaction (the hook slices keep their capacity). The
// executor uses this pool internally; benchmarks and tests that drive
// transactions by hand should too.
func GetTx() *Tx {
	tx := txPool.Get().(*Tx)
	tx.id = txIDs.Add(1)
	tx.status = Active
	tx.worker = 0
	tx.item = -1
	telemetry.CountTxBegin()
	return tx
}

// PutTx recycles a finished transaction into the shared pool. The
// transaction must not be Active and must not be used after the call.
func PutTx(tx *Tx) {
	if tx.status == Active {
		panic("engine: PutTx on an active transaction")
	}
	//commvet:ignore Commit/Abort drain and nil out every hook and tally entry before the transaction can get here (Active is rejected above); the slices keep capacity by design
	txPool.Put(tx)
}

// ID returns the transaction's unique identifier.
func (tx *Tx) ID() uint64 { return tx.id }

// Worker returns the executor worker index running this transaction
// (0 for hand-driven transactions). Conflict detectors use it to tag
// trace events with the right track.
func (tx *Tx) Worker() int { return int(tx.worker) }

// SetWorker records the worker index running this transaction.
func (tx *Tx) SetWorker(w int) { tx.worker = int32(w) }

// Item returns the traced work-item key (-1 when unknown).
func (tx *Tx) Item() int64 { return tx.item }

// SetItem records the work-item key for trace events.
func (tx *Tx) SetItem(item int64) { tx.item = item }

// Status returns the transaction's lifecycle state.
func (tx *Tx) Status() Status { return tx.status }

// Attach returns the per-transaction storage word owned by owner,
// creating it zeroed on first use (isNew reports creation). Detectors
// that keep per-transaction state in their own lock-free storage — the
// cascade's slot table, the lock manager's fast hold slots — use the
// word to thread an intrusive chain head through that storage, so
// ending the transaction releases everything it published in one O(own)
// walk with no per-record hook registrations, and the signature
// retractions batch at commit instead of paying a fence per record.
//
// The returned pointer is invalidated by the next Attach call on the
// same transaction with a different owner (the backing array may move):
// read or write it immediately and re-Attach when needed. Like the rest
// of Tx, attachments may only be touched from the goroutine driving the
// transaction. Words survive until the transaction's hooks have run
// (release hooks may still read them) and are cleared before pooling.
func (tx *Tx) Attach(owner any) (word *uint64, isNew bool) {
	for i := range tx.attach {
		if tx.attach[i].owner == owner {
			return &tx.attach[i].word, false
		}
	}
	tx.attach = append(tx.attach, attachment{owner: owner})
	return &tx.attach[len(tx.attach)-1].word, true
}

// Tally returns the transaction's pending counts for detector d (see
// telemetry.Tally), empty on first use; Commit, Abort and CommitBatch
// flush them into d. For the usual one-detector transaction the lookup
// is one pointer compare. As with Attach, the next call with another
// detector may invalidate the pointer.
func (tx *Tx) Tally(d *telemetry.Detector) *telemetry.Tally {
	if td := tx.tally.Detector(); td == d {
		return &tx.tally
	} else if td == nil {
		tx.tally = telemetry.NewTally(d)
		return &tx.tally
	}
	for i := range tx.tallies {
		if tx.tallies[i].Detector() == d {
			return &tx.tallies[i]
		}
	}
	tx.tallies = append(tx.tallies, telemetry.NewTally(d))
	return &tx.tallies[len(tx.tallies)-1]
}

// flushTallies flushes and empties the tallies, keeping capacity.
func (tx *Tx) flushTallies() {
	if tx.tally.Detector() == nil {
		return
	}
	tx.tally.Flush()
	tx.tally = telemetry.Tally{}
	for i := range tx.tallies {
		tx.tallies[i].Flush()
	}
	clearHooks(&tx.tallies)
}

// AttachedWord returns owner's attachment word, or nil if owner never
// attached to this transaction — a lookup-only Attach for release paths
// that must distinguish "no records" from "records threaded elsewhere"
// (see EndWord).
func (tx *Tx) AttachedWord(owner any) *uint64 {
	for i := range tx.attach {
		if tx.attach[i].owner == owner {
			return &tx.attach[i].word
		}
	}
	return nil
}

// EndWord returns the per-transaction scratch word reserved for the
// end-owner releaser (see OnEnd): the detector that wins the end slot
// may thread its record chain through this word instead of an Attach
// entry, skipping the attachment scan on every invocation and the
// pointer-bearing attachment clear on every commit. The word lives
// until the end hook has run and is zeroed with it; a detector that
// lost the end slot must use Attach, and its release path should try
// AttachedWord first so the two storages never mix.
func (tx *Tx) EndWord() *uint64 { return &tx.endWord }

// OnUndoer registers u.UndoTx(tx) to run if the transaction aborts, the
// undo actions newest first.
func (tx *Tx) OnUndoer(u Undoer) {
	tx.mustBeActive()
	tx.undo = append(tx.undo, u)
}

// OnReleaser registers r.ReleaseTx(tx) to run when the transaction ends,
// whether by commit or abort. Release hooks run after undo actions
// during an abort.
func (tx *Tx) OnReleaser(r Releaser) {
	tx.mustBeActive()
	tx.release = append(tx.release, r)
}

// OnEnd registers r in the transaction's single "end owner" slot: a
// cheaper OnReleaser for detectors that attach to every transaction
// they see — one interface store instead of hook-slice appends. The
// owner's ReleaseTx runs when the transaction ends (after the regular
// release hooks), and if r also implements Undoer its UndoTx runs on
// abort (after the regular undo hooks). r must be comparable (all
// detectors register pointers). The slot holds at most one owner:
// OnEnd reports whether r owns it on return; false means another
// detector got there first and the caller must fall back to
// OnUndoer/OnReleaser.
func (tx *Tx) OnEnd(r Releaser) bool {
	tx.mustBeActive()
	if tx.end == nil {
		tx.end = r
		return true
	}
	return tx.end == r
}

// Seal records that the transaction is about to write state it
// registers no undo for. A cautious method — one that acquires every
// lock it needs before its first write — calls it once the last lock is
// granted and before that write. From then on the transaction can only
// commit: Abort panics, since no undo could roll the writes back. Commit
// clears the seal, so a pooled transaction starts unsealed. Its callers
// are flowgraph's PushRelabel (preflow's cautious discharge), Borůvka's
// component merge and cluster.Step, each after its last refusable call.
func (tx *Tx) Seal() {
	tx.mustBeActive()
	tx.sealed = true
}

// Commit ends the transaction successfully, running release hooks.
func (tx *Tx) Commit() {
	tx.mustBeActive()
	tx.status = Committed
	tx.sealed = false
	tx.runRelease()
	if e := tx.end; e != nil {
		tx.end = nil
		e.ReleaseTx(tx)
		tx.endWord = 0
	}
	clearHooks(&tx.undo)
	clearHooks(&tx.attach)
	tx.flushTallies()
	telemetry.TxCommit(int(tx.worker), tx.id, tx.item)
}

// BatchReleaser is a Releaser that can free many transactions' records
// under one acquisition of its internal serialization (one release
// mutex, one set of retraction fences for the whole group). The cascade
// gatekeeper implements it.
type BatchReleaser interface {
	Releaser
	ReleaseTxBatch(txs []*Tx)
}

// CommitBatch commits txs as one group. When every transaction's sole
// release mechanism — its OnEnd owner, or a single OnReleaser hook —
// is the same BatchReleaser, the whole group is released through one
// ReleaseTxBatch call: the group-commit fast path batch admission
// relies on. Any other hook shape falls back to committing each
// transaction individually, with identical semantics. Transactions
// must all be Active.
func CommitBatch(txs []*Tx) {
	if len(txs) == 0 {
		return
	}
	var br BatchReleaser
	var brr Releaser // br as its Releaser identity, for cheap compares
	uniform := true
	nset := 0
	for _, tx := range txs {
		tx.mustBeActive()
		var r Releaser
		if tx.end != nil && len(tx.release) == 0 {
			r = tx.end
		} else if tx.end == nil && len(tx.release) == 1 {
			r = tx.release[0]
		}
		if r != brr || r == nil {
			b, ok := r.(BatchReleaser)
			if !ok || (br != nil && b != br) {
				uniform = false
				break
			}
			br, brr = b, r
		}
		tx.status = Committed // provisional until the scan completes
		nset++
	}
	if !uniform || br == nil {
		for _, tx := range txs[:nset] {
			tx.status = Active
		}
		for _, tx := range txs {
			tx.Commit()
		}
		return
	}
	br.ReleaseTxBatch(txs)
	for _, tx := range txs {
		tx.sealed = false
		tx.end = nil
		tx.endWord = 0
		clearHooks(&tx.release)
		clearHooks(&tx.undo)
		clearHooks(&tx.attach)
		tx.flushTallies()
	}
	if telemetry.TraceEnabled() {
		for _, tx := range txs {
			telemetry.TxCommit(int(tx.worker), tx.id, tx.item)
		}
	} else {
		telemetry.CountTxCommits(len(txs))
	}
}

// Abort rolls the transaction back: undo actions run newest-first, then
// release hooks run. It panics on a sealed transaction (see Seal): its
// writes have no undo, so no abort can roll them back.
func (tx *Tx) Abort() {
	tx.mustBeActive()
	if tx.sealed {
		panic(fmt.Sprintf("engine: abort of sealed transaction %d: its writes have no undo", tx.id))
	}
	tx.abort(true)
}

// abandon ends a transaction whose iteration body panicked. An unsealed
// one aborts. A sealed one cannot roll back (see Seal), so it ends without
// undo: the release hooks and the end owner's ReleaseTx run as on abort,
// so no lock or log entry outlives the run, and the writes made since
// Seal stay. The run reports the panic.
func (tx *Tx) abandon() { tx.abort(!tx.sealed) }

// abort ends an active transaction as aborted, running its undo actions
// first when undo is set.
func (tx *Tx) abort(undo bool) {
	tx.status = Aborted
	tx.sealed = false
	if undo {
		for i := len(tx.undo) - 1; i >= 0; i-- {
			tx.undo[i].UndoTx(tx)
		}
		if u, ok := tx.end.(Undoer); ok {
			u.UndoTx(tx)
		}
	}
	clearHooks(&tx.undo)
	tx.runRelease()
	if e := tx.end; e != nil {
		tx.end = nil
		e.ReleaseTx(tx)
		tx.endWord = 0
	}
	clearHooks(&tx.attach)
	tx.flushTallies()
	telemetry.TxAbort(int(tx.worker), tx.id, tx.item)
}

func (tx *Tx) runRelease() {
	for i := len(tx.release) - 1; i >= 0; i-- {
		tx.release[i].ReleaseTx(tx)
	}
	clearHooks(&tx.release)
}

// clearHooks empties a hook or attachment slice but keeps its capacity,
// zeroing every entry so pooled transactions retain no closure or
// detector references across iterations.
func clearHooks[T any](hs *[]T) {
	s := *hs
	clear(s)
	*hs = s[:0]
}

func (tx *Tx) mustBeActive() {
	if tx.status != Active {
		panic(fmt.Sprintf("engine: operation on %v transaction %d", tx.status, tx.id))
	}
}

func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}
