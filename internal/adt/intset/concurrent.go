package intset

import (
	"sync"

	"commlat/internal/abslock"
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
	"commlat/internal/telemetry"
)

// Set is a transactionally guarded set: the interface all conflict
// detection variants share. Methods return an error satisfying
// engine.IsConflict when the invocation does not commute with a live
// transaction; the caller's transaction then aborts and retries.
type Set interface {
	Add(tx *engine.Tx, x int64) (bool, error)
	Remove(tx *engine.Tx, x int64) (bool, error)
	Contains(tx *engine.Tx, x int64) (bool, error)
	// Snapshot returns the current elements. Only safe when no
	// transactions are live.
	Snapshot() []int64
}

// LockedSet guards a representation with a synthesized abstract-locking
// scheme (§3.2). The same type serves every SIMPLE lattice point: global
// lock (bottom), exclusive, read/write, and partitioned — only the scheme
// differs.
type LockedSet struct {
	mgr *abslock.Manager
	ops [3]*abslock.Method // compiled acquisition handles, by setOp
	r   guardedRep
	log *engine.UndoLog[setRec] // guarded by r.mu
}

// setOp indexes a set operation: every guarded set passes it down to
// guardedRep.effect, and the handle tables are indexed by it.
type setOp int

const (
	opAdd setOp = iota
	opRemove
	opContains
)

var opNames = [3]string{opAdd: "add", opRemove: "remove", opContains: "contains"}

// setRec is one change of a set: add or remove x.
type setRec struct {
	op setOp
	x  int64
}

// apply applies r to rep, or r's inverse if undo is set, and reports
// whether rep changed.
func (r setRec) apply(rep Rep, undo bool) bool {
	if (r.op == opAdd) != undo {
		return rep.Add(r.x)
	}
	return rep.Remove(r.x)
}

// guardedRep is a representation behind the mutex that makes its
// operations physically atomic. Every detector-guarded set applies its
// operations through it: the detectors decide which invocations may
// overlap, not how the representation survives the overlap.
type guardedRep struct {
	mu  sync.Mutex
	rep Rep
}

// effect applies op to x and returns its result, with the inverse as
// Undo when the set changed.
func (r *guardedRep) effect(op setOp, x int64) gatekeeper.Effect {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch op {
	case opAdd:
		if r.rep.Add(x) {
			return gatekeeper.Effect{Ret: core.VBool(true), Undo: func() {
				r.mu.Lock()
				r.rep.Remove(x)
				r.mu.Unlock()
			}}
		}
		return gatekeeper.Effect{Ret: core.VBool(false)}
	case opRemove:
		if r.rep.Remove(x) {
			return gatekeeper.Effect{Ret: core.VBool(true), Undo: func() {
				r.mu.Lock()
				r.rep.Add(x)
				r.mu.Unlock()
			}}
		}
		return gatekeeper.Effect{Ret: core.VBool(false)}
	default:
		return gatekeeper.Effect{Ret: core.VBool(r.rep.Contains(x))}
	}
}

// addRun is effect(opAdd) over one admission run, the mutex taken once.
func (r *guardedRep) addRun(run []gatekeeper.BatchOp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range run {
		x := run[k].Args.At(0).Int()
		if r.rep.Add(x) {
			run[k].Ret = core.VBool(true)
			run[k].Undo = func() {
				r.mu.Lock()
				r.rep.Remove(x)
				r.mu.Unlock()
			}
		} else {
			run[k].Ret = core.VBool(false)
		}
	}
}

// elems returns the elements; only safe with no live transactions.
func (r *guardedRep) elems() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rep.Elems()
}

// NewLocked synthesizes the abstract locking scheme for spec (which must
// be SIMPLE, possibly keyed) and guards rep with it. keys supplies
// implementations for key functions (nil for identity-only specs).
func NewLocked(rep Rep, spec *core.Spec, keys map[string]abslock.KeyFunc) (*LockedSet, error) {
	scheme, err := abslock.Synthesize(spec)
	if err != nil {
		return nil, err
	}
	return newLocked(rep, scheme.Reduce(), keys), nil
}

// newLocked guards rep with a reduced scheme.
func newLocked(rep Rep, scheme *abslock.Scheme, keys map[string]abslock.KeyFunc) *LockedSet {
	s := &LockedSet{mgr: abslock.NewManager(scheme, keys), r: guardedRep{rep: rep}}
	s.log = engine.NewUndoLog(&s.r.mu, func(r setRec) { r.apply(s.r.rep, true) })
	for op, method := range opNames {
		s.ops[op] = s.mgr.Method(method)
	}
	return s
}

// The shipped points' schemes, shared by every set at the point (the
// partition count changes only the key function).
var globalScheme, exScheme, rwScheme, partScheme = abslock.Shipped(BottomSpec),
	abslock.Shipped(ExclusiveSpec), abslock.Shipped(RWSpec), abslock.Shipped(PartitionedSpec)

// Telemetry returns the lock manager's telemetry detector, which
// reports per-mode acquisition/wait counters and mode-pair conflicts.
func (s *LockedSet) Telemetry() *telemetry.Detector { return s.mgr.Telemetry() }

// NewGlobalLock guards rep with the single global lock synthesized from ⊥.
func NewGlobalLock(rep Rep) *LockedSet { return newLocked(rep, globalScheme(), nil) }

// NewExclusiveLocked guards rep with exclusive per-element locks.
func NewExclusiveLocked(rep Rep) *LockedSet { return newLocked(rep, exScheme(), nil) }

// NewRWLocked guards rep with read/write per-element locks (figure 3).
func NewRWLocked(rep Rep) *LockedSet { return newLocked(rep, rwScheme(), nil) }

// NewPartitionLocked guards rep with locks on nparts partitions (§4.2).
func NewPartitionLocked(rep Rep, nparts int) *LockedSet {
	return newLocked(rep, partScheme(), map[string]abslock.KeyFunc{
		PartitionKey: func(v core.Value) uint64 { return uint64(Partition(v.Int(), nparts)) },
	})
}

// invoke guards one operation: pre-acquire, apply, post-acquire.
func (s *LockedSet) invoke(tx *engine.Tx, op setOp, x int64) (bool, error) {
	h, arg := s.ops[op], core.VInt(x)
	if err := s.mgr.Acquire(tx, h, arg); err != nil {
		return false, err
	}
	ret := s.apply(tx, op, x)
	if err := s.mgr.AcquirePost(tx, h, core.VBool(ret), arg); err != nil {
		return false, err
	}
	return ret, nil
}

// apply runs op on the representation, logging it in tx when it changed
// the set.
func (s *LockedSet) apply(tx *engine.Tx, op setOp, x int64) bool {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if op == opContains {
		return s.r.rep.Contains(x)
	}
	r := setRec{op, x}
	changed := r.apply(s.r.rep, false)
	if changed {
		s.log.Record(tx, r)
	}
	return changed
}

// Add inserts x under the lock discipline; it reports whether the set
// changed.
func (s *LockedSet) Add(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, opAdd, x) }

// Remove deletes x under the lock discipline.
func (s *LockedSet) Remove(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, opRemove, x) }

// Contains queries membership under the lock discipline.
func (s *LockedSet) Contains(tx *engine.Tx, x int64) (bool, error) {
	return s.invoke(tx, opContains, x)
}

// Snapshot returns the elements; only safe with no live transactions.
func (s *LockedSet) Snapshot() []int64 { return s.r.elems() }

// GatekeptSet guards a representation with a forward gatekeeper built
// from the precise specification of figure 2 (§3.3.1) — the most
// permissive detector for sets: non-mutating adds/removes and reads of
// untouched elements all proceed concurrently.
type GatekeptSet struct {
	g   *gatekeeper.Forward
	ops [3]*gatekeeper.Method // method handles, by setOp
	r   guardedRep
}

// NewGatekept builds the forward-gatekept set over rep.
func NewGatekept(rep Rep) *GatekeptSet {
	g, err := gatekeeper.NewForward(PreciseSpec(), nil)
	if err != nil {
		panic(err) // the precise set spec is ONLINE-CHECKABLE
	}
	s := &GatekeptSet{g: g, r: guardedRep{rep: rep}}
	for op, method := range opNames {
		s.ops[op] = g.Method(method)
	}
	return s
}

func (s *GatekeptSet) invoke(tx *engine.Tx, op setOp, x int64) (bool, error) {
	ret, err := s.g.Invoke(tx, s.ops[op], core.Args1(core.VInt(x)), func() gatekeeper.Effect {
		return s.r.effect(op, x)
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

// Add inserts x under gatekeeping; it reports whether the set changed.
func (s *GatekeptSet) Add(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, opAdd, x) }

// Remove deletes x under gatekeeping.
func (s *GatekeptSet) Remove(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, opRemove, x) }

// Contains queries membership under gatekeeping.
func (s *GatekeptSet) Contains(tx *engine.Tx, x int64) (bool, error) {
	return s.invoke(tx, opContains, x)
}

// Telemetry returns the gatekeeper's telemetry detector, which
// additionally attributes checks and conflicts per method pair.
func (s *GatekeptSet) Telemetry() *telemetry.Detector { return s.g.Telemetry() }

// Snapshot returns the elements; only safe with no live transactions.
func (s *GatekeptSet) Snapshot() []int64 { return s.r.elems() }

// CascadeSet guards a representation with the lattice-cascade detector
// built from the same precise specification as GatekeptSet. The
// detector takes no lock at all on the disjoint-element fast path — a
// signature-filter miss admits the invocation after the effect ran —
// so the representation's own mutex is what protects it inside the
// exec closure: detection and representation locking decouple.
type CascadeSet struct {
	c *gatekeeper.Cascade
	r guardedRep
}

// NewCascaded builds the cascade-guarded set over rep.
func NewCascaded(rep Rep) *CascadeSet {
	c, err := gatekeeper.NewCascade(PreciseSpec(), nil)
	if err != nil {
		panic(err) // the precise set spec is log-free, hence cascadable
	}
	return &CascadeSet{c: c, r: guardedRep{rep: rep}}
}

func (s *CascadeSet) invoke(tx *engine.Tx, op setOp, x int64) (bool, error) {
	ret, err := s.c.Invoke(tx, opNames[op], core.Args1(core.VInt(x)), func() gatekeeper.Effect {
		return s.r.effect(op, x)
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

// Add inserts x under the cascade; it reports whether the set changed.
func (s *CascadeSet) Add(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, opAdd, x) }

// addBatchPool recycles the BatchOp staging slices of AddBatch so a
// steady-state batched worker allocates nothing per batch.
var addBatchPool = sync.Pool{New: func() any { return new([]gatekeeper.BatchOp) }}

// AddBatch inserts xs[i] under txs[i] as one admission batch: the
// representation lock is taken once for the whole run, the cascade
// admits the longest prefix whose verdicts match one-at-a-time
// execution (gatekeeper.Cascade.InvokeBatch), and that prefix's
// transactions group-commit through engine.CommitBatch — one release
// acquisition for all of them. The remaining items then re-run through
// the ordinary serial path, so every item gets exactly the serial
// verdict. It fills rets[i] and errs[i] for each item and returns the
// batched prefix length (callers wanting throughput telemetry; the
// per-item results are complete either way).
//
// On return, every tx with errs[i] == nil has been committed; a tx
// with a conflict in errs[i] is still active and must be aborted by
// the caller — exactly the engine.BatchBody contract.
func (s *CascadeSet) AddBatch(txs []*engine.Tx, xs []int64, rets []bool, errs []error) int {
	opsp := stageAdds(txs, xs)
	p := s.c.InvokeBatch(*opsp, func(run []gatekeeper.BatchOp) { s.r.addRun(run) })
	return commitAdds(s, opsp, p, txs, xs, rets, errs)
}

// stageAdds fills pooled staging entries for adding xs[i] under txs[i].
func stageAdds(txs []*engine.Tx, xs []int64) *[]gatekeeper.BatchOp {
	opsp := addBatchPool.Get().(*[]gatekeeper.BatchOp)
	ops := *opsp
	if cap(ops) < len(xs) {
		ops = make([]gatekeeper.BatchOp, len(xs))
	} else {
		ops = ops[:len(xs)]
	}
	for i := range xs {
		// Fill the pooled staging entries field-wise: a fresh BatchOp
		// literal would copy the whole inline Vec per op. Recycled
		// entries already hold a 1-value Vec, so only the value changes.
		op := &ops[i]
		op.Tx = txs[i]
		op.Method = "add"
		if op.Args.Len() == 1 {
			op.Args.Set(0, core.VInt(xs[i]))
		} else {
			op.Args = core.Args1(core.VInt(xs[i]))
		}
	}
	*opsp = ops
	return opsp
}

// commitAdds finishes an admission batch of which the detector admitted
// the first p staged entries: it reports their results, recycles the
// staging entries, group-commits the admitted transactions and re-runs
// the rest one at a time through s.Add.
func commitAdds(s Set, opsp *[]gatekeeper.BatchOp, p int, txs []*engine.Tx, xs []int64, rets []bool, errs []error) int {
	ops := *opsp
	for i := 0; i < p; i++ {
		rets[i], errs[i] = ops[i].Ret.Bool(), nil
	}
	for i := range ops {
		// Drop the transaction and closure references; the staged Args
		// and Ret hold only ref-free ints and bools and are reused in
		// place by the next batch.
		ops[i].Tx = nil
		ops[i].Undo = nil
	}
	*opsp = ops[:0]
	addBatchPool.Put(opsp)
	// Group-commit the admitted prefix before the serial re-runs: the
	// suffix's verdicts must see the prefix's transactions as finished,
	// exactly as a one-at-a-time schedule would.
	engine.CommitBatch(txs[:p])
	for i := p; i < len(xs); i++ {
		rets[i], errs[i] = s.Add(txs[i], xs[i])
		if errs[i] == nil {
			txs[i].Commit()
		}
	}
	return p
}

// Remove deletes x under the cascade.
func (s *CascadeSet) Remove(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, opRemove, x) }

// Contains queries membership under the cascade.
func (s *CascadeSet) Contains(tx *engine.Tx, x int64) (bool, error) {
	return s.invoke(tx, opContains, x)
}

// Telemetry returns the cascade's telemetry detector.
func (s *CascadeSet) Telemetry() *telemetry.Detector { return s.c.Telemetry() }

// Cascade exposes the underlying detector (tests use it to inspect
// active-window drainage).
func (s *CascadeSet) Cascade() *gatekeeper.Cascade { return s.c }

// Snapshot returns the elements; only safe with no live transactions.
func (s *CascadeSet) Snapshot() []int64 { return s.r.elems() }

var (
	_ Set = (*LockedSet)(nil)
	_ Set = (*GatekeptSet)(nil)
	_ Set = (*CascadeSet)(nil)
)
