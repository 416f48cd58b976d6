package gatekeeper

import (
	"fmt"
	"sync"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// This file is the active log both logging gatekeepers are built on
// (§3.3): the table of active invocations indexed by method, the
// per-ordered-pair plans, the gather that turns an incoming invocation
// into queued commutativity checks (disequality-index probes where the
// pair allows, active-list scans otherwise), the check loop, and the
// record/release path. Forward and General are two sequencings of these
// steps around exec; they differ only in when the gather runs and in
// where a queued check's state-function values come from, and both
// differences reach the core as data — which list a plan sits in, and
// the value windows on the pending check.

// entry is an active logged invocation, and the only record the
// gatekeeper keeps of it: the invocation itself, the result log L_m(v)
// holding the values of the primitive functions Cm evaluated when it ran
// (§3.3.1 step 1; stored by slot index, the slot assignment is per method
// and fixed at construction), and the journal position marking the state
// it executed in (§3.3.2). A forward gatekeeper leaves seqPre zero, a
// general one keeps no log.
type entry struct {
	tx     *engine.Tx
	mid    uint16
	inv    core.Invocation
	log    []core.Value
	seqPre uint64 // state s1 = current state with journal entries seq > seqPre undone

	// keys holds how the entry is filed in each key slot of its method
	// (aligned with the method's slots). gen is the probe-generation
	// stamp used to deduplicate an entry reachable through several guards
	// of one probe. pos is the entry's position in its method's active
	// list, maintained under swap-deletes so a transaction's release
	// touches only its own entries.
	keys []entryKey
	gen  uint64
	pos  int

	// id is the entry's fixed place in the gatekeeper's entry table, from
	// 1; prevTx is the id of the same transaction's next older active
	// entry (0 = none) — the chain UndoTx and ReleaseTx walk.
	id, prevTx uint32

	// undo reverts the invocation's effect (nil for none); changed says
	// the method's inverse reverts it instead, read back from inv. A
	// general gatekeeper also journals the effect: seq is the entry's
	// place in the journal (0 = not journaled), redo re-applies the
	// effect, and jprev/jnext link the journal in seq order.
	undo, redo   func()
	changed      bool
	seq          uint64
	jprev, jnext *entry
}

// entryKey is an entry's place in one key slot: the bucket of its
// x-value's canonical key hash, or the unkeyed list.
type entryKey struct {
	h     uint64
	keyed bool
}

// pairPlan is the static plan for one ordered method pair: the
// condition to check when the second method arrives while the first is
// active, compiled once into a closure checker whose stateful terms
// read recorded values by slot (falling back to live evaluation for a
// slot left unset).
type pairPlan struct {
	cond    core.Cond
	check   checkFn
	trivial bool // condition is the constant true: nothing to check
	never   bool // condition is the constant false

	// fn2 lists the non-pure s2-state functions, valued in the state the
	// second method executes in and bound to pre2 slots by position; fn1
	// lists the non-pure s1 functions a general gatekeeper values under
	// rollback, bound to log1 slots by position (a forward gatekeeper
	// binds log1 to the first method's log instead and leaves fn1 empty).
	fn1, fn2 []core.FnTerm
	// fn1 and fn2 compiled without bindings, for the gatekeeper to value
	// them live in the state it has arranged: a forward one fn2 before
	// execution, a general one both under rollback.
	fn1Eval, fn2Eval []termFn

	// Disequality index compilation (see index.go). When indexed, keys
	// holds one compiled guard per CNF clause of the condition; incoming
	// invocations probe the first method's key slots instead of scanning
	// its active list. pureDiseq marks conditions that are exactly the
	// conjunction of the guards, so a (non-NaN) collision is a conflict
	// without running the checker. probePost marks plans whose probe
	// needs r2 and can only run after execution.
	keys      []indexKey
	indexed   bool
	pureDiseq bool
	probePost bool

	// m1id/m2id are the pair's method IDs — the index into the method
	// tables and the telemetry detector's label vocabulary alike, so
	// attribution on the hot path is an array-indexed atomic add.
	m1id, m2id uint16
}

// pending is one queued commutativity check of an Invoke: the active
// entry, the plan, and the recorded values the compiled checker reads.
// log1 starts as the active entry's own log; a gatekeeper that values
// first-side functions per check points it at its captured window
// instead. pre2 is filled by whoever values the plan's fn2.
type pending struct {
	e          *entry
	plan       *pairPlan
	log1, pre2 []core.Value
	// immediate marks a collision on a purely-disequality condition:
	// the condition is known false, so the check loop conflicts without
	// evaluating the checker.
	immediate bool
}

// loggedFn is one primitive function of Cm with its assigned log slot,
// compiled like the conditions that read the slot.
type loggedFn struct {
	ft   core.FnTerm
	eval termFn
	slot int
}

// Method is one method's row of the log, indexed by method ID, and the
// handle Invoke takes: callers fetch it once with Method and pass it on
// every invocation, so no name is looked up on the hot path.
type Method struct {
	name   string
	id     uint16
	cmPre  []loggedFn // Cm: non-pure s1 functions, evaluated pre-execution
	cmPost []loggedFn // Cm: pure s1 functions, evaluated post-execution
	logLen int        // log slots per entry
	// pre and post hold the non-trivial plans with this method as the
	// incoming (second) side, split by whether their gather runs before
	// or after the method executes.
	pre, post []*pairPlan
	slots     []*keySlot // disequality key slots entries of this method are filed in
	active    []*entry
	// inverse undoes an invocation of this method that reported a change,
	// from its arguments and return value (see SetInverse).
	inverse func(inv *core.Invocation)
}

// SetInverse gives the method an inverse: an Effect that reports Changed
// is undone by calling inv on the invocation as the gatekeeper logged it,
// arguments and return value, so the guarded structure builds no undo
// closure per call. Set it once, when the structure is built and before
// its first invocation.
func (m *Method) SetInverse(inv func(inv *core.Invocation)) { m.inverse = inv }

// logged is the active log. All mutable state is guarded by mu, which
// also makes a gatekeeper's intercept–check–execute–record sequence
// atomic.
type logged struct {
	spec *core.Spec
	res  core.StateFn // live resolver against the guarded structure

	methods []Method
	plans   []pairPlan // ordered pairs, row-major by (m1, m2)

	tele *telemetry.Detector // attribution counters (method vocabulary)

	mu       sync.Mutex
	nActive  int
	probeGen uint64
	// entries is every entry this gatekeeper made, by id; free is the
	// stack of those not in use. Both ends of an entry's life hold mu
	// already, so neither needs synchronization of its own; they start
	// empty and grow to the active high-water mark. A transaction's
	// active entries are chained newest first through prevTx from the
	// head id in its Tx.Attach word, so ending a transaction walks its
	// own entries and the gatekeeper keeps no per-transaction map. cur is
	// the entry the open section took and has not recorded: end returns
	// it, which covers a refusal and a panicking exec alike.
	entries []*entry
	free    []*entry
	cur     *entry

	// The general gatekeeper's undo/redo journal (§3.3.2), threaded
	// through the entries of its live mutations in seq order, jTail the
	// newest; seq numbers the mutations. A forward gatekeeper journals
	// nothing.
	seq   uint64
	jTail *entry
	jLen  int

	// per-Invoke scratch, reused under mu to keep the hot path
	// allocation-free. nvals counts the recorded-value slots the queued
	// checks need, so vals can be sized once before windows are cut.
	checks    []pending
	nvals     int
	vals      []core.Value
	probeKeys []uint64
	// ctx is the compiled-checker evaluation context. A local checkCtx
	// escapes (its address flows into checker function values), so the
	// hot paths reuse this one field instead. It points into entries —
	// the section's own and the active ones it is checked against — and
	// into the scratch above, so it is meaningful only inside the section
	// that took mu; end clears it.
	ctx checkCtx
}

// init builds the method tables and one bare plan per ordered pair;
// the gatekeeper's constructor then schedules each plan's functions and
// calls compile on it.
func (l *logged) init(kind string, spec *core.Spec, res core.StateFn) {
	names := spec.Sig.MethodNames()
	n := len(names)
	l.spec, l.res = spec, res
	l.methods = make([]Method, n)
	l.plans = make([]pairPlan, n*n)
	l.tele = telemetry.Register(kind, spec.Sig.Name, names)
	for i, m := range names {
		l.methods[i].name, l.methods[i].id = m, uint16(i)
	}
	for i1, m1 := range names {
		for i2, m2 := range names {
			plan := &l.plans[i1*n+i2]
			plan.cond = spec.Cond(m1, m2)
			plan.m1id, plan.m2id = uint16(i1), uint16(i2)
			switch plan.cond.(type) {
			case core.TrueCond:
				plan.trivial = true
			case core.FalseCond:
				plan.never = true
			}
		}
	}
}

// compile builds the plan's checker over bind and, when indexed, its
// disequality guards (see compileIndex for statefulX). Only tests build
// an unindexed gatekeeper: the scan is their reference for the index.
func (l *logged) compile(plan *pairPlan, bind map[string]slotBinding, indexed, statefulX bool) {
	plan.check = compileCond(plan.cond, bind, l.res)
	if !indexed || plan.trivial || plan.never {
		return
	}
	keys, pureDiseq, probePost, ok := compileIndex(plan.cond, l.spec.Pure, bind, l.res, statefulX, l.slotFor(plan.m1id))
	if ok {
		plan.keys, plan.indexed = keys, true
		plan.pureDiseq, plan.probePost = pureDiseq, probePost
	}
}

// slotFor interns a guard x term into method m1's key-slot list,
// deduplicating across pairs so that every pair guarding on the same
// first-side value shares one bucket map.
func (l *logged) slotFor(m1 uint16) func(x core.Term, extract termFn) *keySlot {
	return func(x core.Term, extract termFn) *keySlot {
		mt := &l.methods[m1]
		xk := core.TermKey(x)
		for _, s := range mt.slots {
			if core.TermKey(s.term) == xk {
				return s
			}
		}
		s := &keySlot{term: x, extract: extract, index: map[uint64]*bucket{}}
		mt.slots = append(mt.slots, s)
		return s
	}
}

// Method returns the handle Invoke takes for the named method. It
// panics on a name the signature does not list: unchecked, such a
// method would execute, match no plan and join the log — conflict
// detection silently off.
func (l *logged) Method(name string) *Method {
	for i := range l.methods {
		if l.methods[i].name == name {
			return &l.methods[i]
		}
	}
	panic(fmt.Sprintf("gatekeeper: %s has no method %q", l.spec.Sig.Name, name))
}

// begin opens an invocation of mt's method: mutex taken, invocation
// counted, and a recycled entry bound to tx with the arguments copied
// into it and its log sized. The entry stays the section's own (cur)
// until record files it. The second result is the latency mark end
// observes from.
func (l *logged) begin(tx *engine.Tx, mt *Method, args *core.Vec) (*entry, int64) {
	l.mu.Lock()
	l.tele.IncInvocation()
	var e *entry
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		e = &entry{id: uint32(len(l.entries) + 1)}
		l.entries = append(l.entries, e)
	}
	e.tx, e.mid = tx, mt.id
	e.inv.Method = mt.name
	e.inv.Args = *args
	if cap(e.log) >= mt.logLen {
		e.log = e.log[:mt.logLen]
	} else {
		e.log = make([]core.Value, mt.logLen)
	}
	l.cur = e
	return e, telemetry.TxClock(tx.ID())
}

// end closes the section begin opened — deferred, so a panicking exec
// still unlocks. Unless record filed the section's entry (a refusal, a
// failed evaluation, a panic), it undoes the entry's effect, takes it
// out of the journal and returns it to the free stack. It then observes
// the invocation from mark t0 and leaves no scratch pointing at an
// entry or a user value: entries are recycled and their transactions
// end outside any section, so a pointer kept past here would dangle
// into another invocation, and a kept window or queue would pin the
// last arguments for as long as the gatekeeper idles.
func (l *logged) end(tx *engine.Tx, mid uint16, t0 int64, err *error) {
	if e := l.cur; e != nil {
		l.revert(e)
		if e.seq != 0 {
			l.unlinkJournal(e)
		}
		l.putEntry(e)
		l.cur = nil
	}
	if obsInstrumented(t0) {
		// The whole mutex-held check-execute-log sequence is one precise
		// evaluation.
		rec := telemetry.FlightRecord{Det: l.tele.ID(), Method: mid, Verdict: verdictOf(*err)}
		rec.Mark(telemetry.StagePrecise, since(t0))
		observe(tx, &rec, t0, 1<<telemetry.StagePrecise)
	}
	l.bind(nil, nil, nil)
	for i := range l.checks {
		l.checks[i] = pending{}
	}
	l.checks = l.checks[:0]
	for i := range l.vals {
		l.vals[i] = core.Value{}
	}
	l.vals, l.nvals = l.vals[:0], 0
	l.mu.Unlock()
}

// revert undoes the entry's effect: its undo action, or its method's
// inverse applied to the logged invocation.
func (l *logged) revert(e *entry) {
	if e.undo != nil {
		e.undo()
	} else if e.changed {
		l.methods[e.mid].inverse(&e.inv)
	}
}

// bind points the checker context at the first (active) and second
// (incoming) invocation, with log1 the first one's recorded values and
// no pre-evaluated second-side values; a side nothing is bound to takes
// &noInv.
func (l *logged) bind(inv1, inv2 *core.Invocation, log1 []core.Value) {
	l.ctx.inv1, l.ctx.inv2 = inv1, inv2
	l.ctx.log1, l.ctx.pre2 = log1, nil
}

// gather queues the commutativity checks the incoming invocation e owes
// under plans: indexed pairs probe the first method's key slots and
// queue only colliding entries; the rest scan its active list.
func (l *logged) gather(tx *engine.Tx, e *entry, plans []*pairPlan) {
	for _, plan := range plans {
		if plan.indexed {
			l.probePair(tx, e, plan)
		} else {
			l.scanPair(tx, plan)
		}
	}
}

// queue adds one check against active entry ae and sizes the value
// arena for the plan's recorded functions.
func (l *logged) queue(ae *entry, plan *pairPlan, immediate bool) {
	l.checks = append(l.checks, pending{e: ae, plan: plan, log1: ae.log, immediate: immediate})
	l.nvals += len(plan.fn1) + len(plan.fn2)
}

// scanPair queues checks against every active entry of the plan's first
// method — the fallback for unindexable pairs and unkeyable probe
// values.
func (l *logged) scanPair(tx *engine.Tx, plan *pairPlan) {
	entries := l.methods[plan.m1id].active
	if len(entries) == 0 {
		return
	}
	l.tele.IncFallbackScan()
	for _, ae := range entries {
		if ae.tx != tx {
			l.queue(ae, plan, false)
		}
	}
}

// probePair evaluates the incoming invocation's probe keys for an
// indexed pair and queues checks only against colliding active entries
// of the plan's first method. A probe value the index cannot
// canonicalize (or evaluate) falls back to the full scan. For
// purely-disequality conditions a collision on a non-NaN key queues an
// immediate conflict: equal key hashes mean equal values (up to a 2⁻⁶⁴
// hash collision, refused conservatively), which falsifies a guard and
// with it the whole condition. NaN keys collide conservatively — NaN ≠
// NaN holds under ValueEq — so they still run the checker.
func (l *logged) probePair(tx *engine.Tx, e *entry, plan *pairPlan) {
	l.tele.IncProbe()
	l.bind(&noInv, &e.inv, nil)
	keys := l.probeKeys[:0]
	for _, pk := range plan.keys {
		v, err := pk.probe(&l.ctx)
		k, ok := v.KeyHash()
		if err != nil || !ok {
			l.probeKeys = keys
			l.scanPair(tx, plan)
			return
		}
		keys = append(keys, k)
	}
	l.probeKeys = keys
	l.probeGen++
	gen := l.probeGen
	for i, pk := range plan.keys {
		imm := plan.pureDiseq && keys[i] != nanKey
		for _, ae := range pk.slot.probe(keys[i]) {
			if ae.tx != tx && ae.gen != gen {
				ae.gen = gen
				l.tele.IncCollision()
				l.queue(ae, plan, imm)
			}
		}
		for _, ae := range pk.slot.unkeyed {
			if ae.tx != tx && ae.gen != gen {
				ae.gen = gen
				l.tele.IncCollision()
				l.queue(ae, plan, false)
			}
		}
	}
}

// arena returns the recorded-value arena sized for the checks queued so
// far, every slot unset. Windows cut from it stay valid until the next
// call.
func (l *logged) arena() []core.Value {
	if cap(l.vals) < l.nvals {
		l.vals = make([]core.Value, l.nvals)
	}
	l.vals = l.vals[:l.nvals]
	for i := range l.vals {
		l.vals[i] = unset
	}
	return l.vals
}

// check runs every queued check in order with the pair's compiled
// checker. The first active invocation e does not commute with yields
// an engine.Conflict; a checker failure yields a plain error.
func (l *logged) check(tx *engine.Tx, e *entry) error {
	ctx := &l.ctx
	for i := range l.checks {
		p := &l.checks[i]
		// An immediate check collided on a purely-disequality condition:
		// some guard x = y holds, so the condition is false by
		// construction and no checker runs.
		if !p.immediate {
			l.tele.Check(p.plan.m1id, p.plan.m2id)
			if p.plan.never {
				l.conflict(tx, p.plan)
				return engine.ConflictBy(p.e.tx.ID(), "gatekeeper: %s never commutes with active %s",
					e.inv.Method, p.e.inv.Method)
			}
			ctx.inv1, ctx.inv2 = &p.e.inv, &e.inv
			ctx.log1, ctx.pre2 = p.log1, p.pre2
			ok, err := p.plan.check(ctx)
			if err != nil {
				return fmt.Errorf("gatekeeper: checking (%s,%s): %w", p.e.inv.Method, e.inv.Method, err)
			}
			if ok {
				continue
			}
		}
		l.conflict(tx, p.plan)
		return engine.ConflictBy(p.e.tx.ID(), "gatekeeper: %s%v does not commute with active %s%v",
			e.inv.Method, e.inv.Args, p.e.inv.Method, p.e.inv.Args)
	}
	return nil
}

// conflict attributes one rejected invocation to the plan's method pair
// and emits a trace event on the invoking transaction's worker track.
func (l *logged) conflict(tx *engine.Tx, plan *pairPlan) {
	l.tele.Conflict(plan.m1id, plan.m2id)
	if telemetry.TraceEnabled() {
		telemetry.EmitConflict(tx.Worker(), tx.ID(), tx.Item(), l.tele.ID(), plan.m1id, plan.m2id)
	}
}

// record makes an admitted invocation active: filed in its method's key
// slots and active list and pushed on its transaction's chain. With the
// transaction's first entry here it registers the gatekeeper as the
// transaction's undo and release hook — interface pairs, not closures,
// so nothing escapes — once for all the entries that follow.
func (l *logged) record(tx *engine.Tx, e *entry) {
	l.cur = nil
	mt := &l.methods[e.mid]
	l.indexEntry(mt, e)
	e.pos = len(mt.active)
	mt.active = append(mt.active, e)
	l.nActive++
	l.tele.ObserveActive(l.nActive)
	head, isNew := tx.Attach(l)
	e.prevTx, *head = uint32(*head), uint64(e.id)
	if isNew {
		tx.OnUndoer(l)
		tx.OnReleaser(l)
	}
}

// indexEntry computes the entry's key per key slot of its method and
// files it in the corresponding buckets (or as unkeyed where the value
// resists canonicalization).
func (l *logged) indexEntry(mt *Method, e *entry) {
	if len(mt.slots) == 0 {
		return
	}
	l.bind(&e.inv, &noInv, e.log)
	if cap(e.keys) >= len(mt.slots) {
		e.keys = e.keys[:len(mt.slots)]
	} else {
		e.keys = make([]entryKey, len(mt.slots))
	}
	for i, s := range mt.slots {
		v, err := s.extract(&l.ctx)
		k, ok := v.KeyHash()
		ok = ok && err == nil
		if ok {
			s.insert(k, e)
		} else {
			s.insertUnkeyed(e)
		}
		e.keys[i] = entryKey{k, ok}
	}
}

// dropFromIndex removes the entry from every key slot it was filed in.
func (l *logged) dropFromIndex(mt *Method, e *entry) {
	for i, s := range mt.slots {
		if i >= len(e.keys) {
			break
		}
		s.remove(e.keys[i], e)
	}
}

// removeActive swap-deletes the entry from its method's active list,
// keeping the moved entry's pos current.
func (l *logged) removeActive(mt *Method, e *entry) {
	es := mt.active
	last := len(es) - 1
	moved := es[last]
	es[e.pos] = moved
	moved.pos = e.pos
	es[last] = nil
	mt.active = es[:last]
}

// putEntry pushes an entry whose invocation did not join the active log
// (or just left it) onto the free stack, reset in one assignment that
// keeps only its id and the arrays of log and keys: a field added later
// starts zeroed too. The invocation and the log values are cleared
// first, so a recycled record pins no user object graph while it waits.
// Caller holds mu.
func (l *logged) putEntry(e *entry) {
	e.inv.Release()
	for i := range e.log {
		e.log[i] = core.Value{}
	}
	*e = entry{id: e.id, log: e.log, keys: e.keys[:0]}
	l.free = append(l.free, e)
}

// UndoTx reverts tx's effects, newest first, under mu. Each journaled
// entry leaves the journal as it is undone, before mu is dropped: the
// engine runs the release hooks as a later step, and an undone mutation
// still in the journal until then could be rolled back and re-applied
// by another transaction's rollbackEval. The entries stay active, their
// checks in force, until ReleaseTx. Registered as an engine.Undoer.
func (l *logged) UndoTx(tx *engine.Tx) {
	l.mu.Lock()
	for id := uint32(*tx.AttachedWord(l)); id != 0; {
		e := l.entries[id-1]
		id = e.prevTx
		l.revert(e)
		if e.seq != 0 {
			l.unlinkJournal(e)
		}
	}
	l.mu.Unlock()
}

// ReleaseTx drops all of tx's active invocations and their logs (§3.3.1
// step 4) and, on commit, their journaled mutations, now permanent, and
// observes the commit stage. It walks only the transaction's own chain,
// so ending a transaction costs O(its invocations) regardless of the
// active window size. Registered as an engine.Releaser.
func (l *logged) ReleaseTx(tx *engine.Tx) {
	t0 := telemetry.TxClock(tx.ID())
	l.mu.Lock()
	head := tx.AttachedWord(l)
	for id := uint32(*head); id != 0; {
		e := l.entries[id-1]
		id = e.prevTx
		if e.seq != 0 {
			l.unlinkJournal(e)
		}
		mt := &l.methods[e.mid]
		l.removeActive(mt, e)
		l.dropFromIndex(mt, e)
		l.nActive--
		l.putEntry(e)
	}
	*head = 0
	telemetry.StageObserve(tx.Worker(), telemetry.StageCommit, t0)
	l.mu.Unlock()
}

// ActiveInvocations reports how many invocations are currently logged
// (for tests and diagnostics).
func (l *logged) ActiveInvocations() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nActive
}

// Telemetry returns the gatekeeper's telemetry detector, whose snapshot
// additionally attributes checks and conflicts per method pair.
func (l *logged) Telemetry() *telemetry.Detector { return l.tele }

// Sync runs f under the gatekeeper's structure mutex, for callers that
// need raw access to the guarded structure outside an Invoke (setup,
// sequential phases, validation).
func (l *logged) Sync(f func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f()
}
