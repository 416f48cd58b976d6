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
	ops [3]*abslock.Method // compiled acquisition handles, by lockedOp
	r   guardedRep
}

func newLockedSet(scheme *abslock.Scheme, keys map[string]abslock.KeyFunc, rep Rep) *LockedSet {
	s := &LockedSet{mgr: abslock.NewManager(scheme.Reduce(), keys), r: guardedRep{rep: rep}}
	for op, method := range opNames {
		s.ops[op] = s.mgr.Method(method)
	}
	return s
}

type lockedOp int

const (
	opAdd lockedOp = iota
	opRemove
	opContains
)

var opNames = [3]string{opAdd: "add", opRemove: "remove", opContains: "contains"}

// guardedRep is a representation behind the mutex that makes its
// operations physically atomic. Every detector-guarded set applies its
// operations through it: the detectors decide which invocations may
// overlap, not how the representation survives the overlap.
type guardedRep struct {
	mu  sync.Mutex
	rep Rep
}

// effect applies method to x and returns its result, with the inverse
// as Undo when the set changed.
func (r *guardedRep) effect(method string, x int64) gatekeeper.Effect {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch method {
	case "add":
		if r.rep.Add(x) {
			return gatekeeper.Effect{Ret: core.VBool(true), Undo: func() {
				r.mu.Lock()
				r.rep.Remove(x)
				r.mu.Unlock()
			}}
		}
		return gatekeeper.Effect{Ret: core.VBool(false)}
	case "remove":
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

// addRun is effect("add") over one admission run, the mutex taken once.
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
	return newLockedSet(scheme, keys, rep), nil
}

// Telemetry returns the lock manager's telemetry detector, which
// reports per-mode acquisition/wait counters and mode-pair conflicts.
func (s *LockedSet) Telemetry() *telemetry.Detector { return s.mgr.Telemetry() }

// NewGlobalLock guards rep with the single global lock synthesized from ⊥.
func NewGlobalLock(rep Rep) *LockedSet {
	s, err := NewLocked(rep, BottomSpec(), nil)
	if err != nil {
		panic(err) // bottom is always SIMPLE
	}
	return s
}

// NewExclusiveLocked guards rep with exclusive per-element locks.
func NewExclusiveLocked(rep Rep) *LockedSet {
	s, err := NewLocked(rep, ExclusiveSpec(), nil)
	if err != nil {
		panic(err)
	}
	return s
}

// NewRWLocked guards rep with read/write per-element locks (figure 3).
func NewRWLocked(rep Rep) *LockedSet {
	s, err := NewLocked(rep, RWSpec(), nil)
	if err != nil {
		panic(err)
	}
	return s
}

// NewLiberalLocked guards rep with the liberal (guarded-mode) locking
// scheme synthesized from the PRECISE specification of figure 2 — the
// footnote-6 extension: non-mutating operations take weak modes, so
// concurrent non-mutating adds of the same element proceed, with lock
// overhead instead of gatekeeper logging.
func NewLiberalLocked(rep Rep) *LockedSet {
	scheme, err := abslock.SynthesizeLiberal(PreciseSpec())
	if err != nil {
		panic(err) // figure 2 is GUARDED-SIMPLE
	}
	return newLockedSet(scheme, nil, rep)
}

// NewPartitionLocked guards rep with locks on nparts partitions (§4.2).
func NewPartitionLocked(rep Rep, nparts int) *LockedSet {
	s, err := NewLocked(rep, PartitionedSpec(), map[string]abslock.KeyFunc{
		PartitionKey: func(v core.Value) core.Value { return core.VInt(Partition(v.Int(), nparts)) },
	})
	if err != nil {
		panic(err)
	}
	return s
}

// invoke guards one operation: pre-acquire, apply, post-acquire.
func (s *LockedSet) invoke(tx *engine.Tx, op lockedOp, x int64) (bool, error) {
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

// apply runs op on the representation, registering the inverse with tx
// when it changed the set.
func (s *LockedSet) apply(tx *engine.Tx, op lockedOp, x int64) bool {
	e := s.r.effect(opNames[op], x)
	if e.Undo != nil {
		tx.OnUndo(e.Undo)
	}
	return e.Ret.Bool()
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
	g *gatekeeper.Forward
	r guardedRep
}

// NewGatekept builds the forward-gatekept set over rep.
func NewGatekept(rep Rep) *GatekeptSet {
	g, err := gatekeeper.NewForward(PreciseSpec(), nil)
	if err != nil {
		panic(err) // the precise set spec is ONLINE-CHECKABLE
	}
	return &GatekeptSet{g: g, r: guardedRep{rep: rep}}
}

func (s *GatekeptSet) invoke(tx *engine.Tx, method string, x int64) (bool, error) {
	ret, err := s.g.Invoke(tx, method, core.Args1(core.VInt(x)), func() gatekeeper.Effect {
		return s.r.effect(method, x)
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

// Add inserts x under gatekeeping; it reports whether the set changed.
func (s *GatekeptSet) Add(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, "add", x) }

// Remove deletes x under gatekeeping.
func (s *GatekeptSet) Remove(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, "remove", x) }

// Contains queries membership under gatekeeping.
func (s *GatekeptSet) Contains(tx *engine.Tx, x int64) (bool, error) {
	return s.invoke(tx, "contains", x)
}

// GateStats returns the forward gatekeeper's work counters.
func (s *GatekeptSet) GateStats() gatekeeper.Stats { return s.g.Stats() }

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
	return NewCascadedConfig(rep, gatekeeper.CascadeConfig{})
}

// NewCascadedConfig is NewCascaded with explicit cascade configuration
// (tests use small slot tables to exercise the overflow path).
func NewCascadedConfig(rep Rep, cfg gatekeeper.CascadeConfig) *CascadeSet {
	c, err := gatekeeper.NewCascadeConfig(PreciseSpec(), nil, cfg)
	if err != nil {
		panic(err) // the precise set spec is log-free, hence cascadable
	}
	return &CascadeSet{c: c, r: guardedRep{rep: rep}}
}

func (s *CascadeSet) invoke(tx *engine.Tx, method string, x int64) (bool, error) {
	ret, err := s.c.Invoke(tx, method, core.Args1(core.VInt(x)), func() gatekeeper.Effect {
		return s.r.effect(method, x)
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

// Add inserts x under the cascade; it reports whether the set changed.
func (s *CascadeSet) Add(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, "add", x) }

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
func (s *CascadeSet) Remove(tx *engine.Tx, x int64) (bool, error) { return s.invoke(tx, "remove", x) }

// Contains queries membership under the cascade.
func (s *CascadeSet) Contains(tx *engine.Tx, x int64) (bool, error) {
	return s.invoke(tx, "contains", x)
}

// GateStats returns the cascade's work counters (stage counters
// included).
func (s *CascadeSet) GateStats() gatekeeper.Stats { return s.c.Stats() }

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
