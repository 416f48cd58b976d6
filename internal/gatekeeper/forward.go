// Package gatekeeper implements the paper's two logging-based conflict
// detection schemes (§3.3): forward gatekeepers for ONLINE-CHECKABLE
// specifications and general gatekeepers, which add state rollback to
// evaluate arbitrary L1 conditions.
//
// A gatekeeper is a special object interposed between transactions and a
// linearizable data structure. The whole sequence — intercept an
// invocation, check it for commutativity against every active invocation
// from other transactions, execute it, and return — appears atomic (a
// per-structure mutex). Because the gatekeeper interacts with the
// structure only through method invocations and declared state functions,
// it is agnostic to the concrete representation.
package gatekeeper

import (
	"fmt"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// Effect is what executing a method invocation produced: its return value
// and how to undo its state change (neither, for read-only invocations,
// which also covers mutating methods that happened not to change
// anything, e.g. add of a present element). A forward gatekeeper whose
// method has an inverse (Method.SetInverse) takes Changed: the change is
// undone by calling the inverse on the logged invocation, with no closure
// built per call. Otherwise Undo is the inverse action. A general
// gatekeeper requires Undo to restore the exact prior state and Redo to
// re-apply the exact change, to roll the structure back to earlier states
// and forward again (§3.3.2); the others ignore Redo.
type Effect struct {
	Ret     core.Value
	Changed bool
	Undo    func()
	Redo    func()
}

// Forward is a forward gatekeeper (§3.3.1): it builds up information
// about method invocations as they happen, storing primitive-function
// results in per-invocation logs, and verifies that every new invocation
// commutes with all active invocations from other transactions. Active
// entries are indexed by method, so an incoming invocation only scans
// methods whose pair condition with it is non-trivial; pairs whose
// condition is the constant true cost nothing.
type Forward struct {
	logged
}

// Stats is the work a gatekeeper performed — the raw material of the
// overhead comparison in §3.4 — as its telemetry detector counts it
// (Telemetry().Snapshot()).
// Reading the disequality-index counters: Probes are indexed pair
// lookups, Collisions the active entries those probes surfaced for full
// checking (hash collisions plus unkeyable entries), FallbackScans full
// active-list scans of a non-empty method list (unindexable pair or
// unkeyable probe value). At large active windows a healthy index shows
// Probes ≫ Collisions and few FallbackScans.
type Stats = telemetry.DetectorSnapshot

// NewForward constructs a forward gatekeeper for spec guarding a
// structure whose state functions are resolved by res. It fails if any
// pair condition is not ONLINE-CHECKABLE (Definition 7), or uses a shape
// this engine cannot schedule (a non-pure state function needing a return
// value before it is known).
func NewForward(spec *core.Spec, res core.StateFn) (*Forward, error) {
	return newForward(spec, res, true)
}

// newForward is NewForward with the disequality index on or off.
func newForward(spec *core.Spec, res core.StateFn, indexed bool) (*Forward, error) {
	g := &Forward{}
	g.init("forward", spec, res)
	logSlots := make([]map[string]int, len(g.methods)) // m1 -> term key -> log slot
	for i := range logSlots {
		logSlots[i] = map[string]int{}
	}
	for i := range g.plans {
		plan := &g.plans[i]
		m1, m2 := &g.methods[plan.m1id], &g.methods[plan.m2id]
		cond, slots := plan.cond, logSlots[plan.m1id]
		if !core.IsOnlineCheckableWith(cond, spec.Pure) {
			return nil, fmt.Errorf("gatekeeper: condition for (%s,%s) is not ONLINE-CHECKABLE: %s (use a general gatekeeper)", m1.name, m2.name, cond)
		}
		// Collect the primitive function set Cm1 (all s1 functions in
		// the condition) and schedule each: pure functions evaluate
		// after execution (the return value is then available);
		// non-pure functions must run in the pre-state and therefore
		// may not mention r1. Every logged function gets a stable slot
		// in m1's log.
		for _, ft := range core.FirstStateFns(cond) {
			key := core.TermKey(ft)
			if _, seen := slots[key]; seen {
				continue
			}
			if spec.Pure[ft.Fn] {
				// Pure functions over first-invocation values are
				// logged after execution (the paper's dist(x, r) log
				// entry); pure functions that also mention the second
				// invocation cannot be logged and are evaluated live
				// at check time instead, which is sound because they
				// are state-independent.
				if !mentionsSide(ft, core.Second) {
					slot := len(slots)
					slots[key] = slot
					m1.cmPost = append(m1.cmPost, loggedFn{ft, compileTerm(ft, nil, res), slot})
				}
			} else {
				if mentionsRet(ft, core.First) {
					return nil, fmt.Errorf("gatekeeper: %s needs non-pure %s(s1,...) over r1, which cannot be evaluated in the pre-state", m1.name, ft.Fn)
				}
				slot := len(slots)
				slots[key] = slot
				m1.cmPre = append(m1.cmPre, loggedFn{ft, compileTerm(ft, nil, res), slot})
			}
		}
		// Non-pure s2 functions must be evaluated in the state the
		// second method executes in, i.e. before it runs, so they may
		// not mention r2.
		for _, ft := range secondStateFns(cond) {
			if spec.Pure[ft.Fn] {
				continue // resolved live; pure functions ignore state
			}
			if mentionsRet(ft, core.Second) {
				return nil, fmt.Errorf("gatekeeper: (%s,%s) needs non-pure %s(s2,...) over r2, which cannot be evaluated before execution", m1.name, m2.name, ft.Fn)
			}
			if containsNonPureFn(ft, core.First, spec.Pure) {
				return nil, fmt.Errorf("gatekeeper: (%s,%s): non-pure s1 function nested inside %s(s2,...) is not supported", m1.name, m2.name, ft.Fn)
			}
			plan.fn2 = append(plan.fn2, ft)
			plan.fn2Eval = append(plan.fn2Eval, compileTerm(ft, nil, res))
		}
	}
	for i := range g.methods {
		g.methods[i].logLen = len(logSlots[i])
	}
	// Compile every plan's condition, binding logged s1 functions to the
	// first method's log slots and pre-evaluated s2 functions to the
	// plan's fn2 slots, and list the non-trivial pairs under their
	// incoming (second) method so Invoke skips always-commuting methods
	// entirely.
	for i := range g.plans {
		plan := &g.plans[i]
		bind := map[string]slotBinding{}
		for k, slot := range logSlots[plan.m1id] {
			bind[k] = slotBinding{src: srcLog1, slot: slot}
		}
		for i, ft := range plan.fn2 {
			bind[core.TermKey(ft)] = slotBinding{src: srcPre2, slot: i}
		}
		g.compile(plan, bind, indexed, true)
		// A probe that needs r2 can only run after execution, but fn2
		// values must be captured per colliding entry before it —
		// irreconcilable, so such pairs keep the scan.
		if plan.probePost && len(plan.fn2) > 0 {
			plan.keys, plan.indexed, plan.pureDiseq, plan.probePost = nil, false, false, false
		}
		if m2 := &g.methods[plan.m2id]; plan.probePost {
			m2.post = append(m2.post, plan)
		} else if !plan.trivial {
			m2.pre = append(m2.pre, plan)
		}
	}
	return g, nil
}

// Invoke executes one guarded invocation of mt's method (a handle from
// g.Method) for tx. exec performs the operation on the underlying
// structure and reports its effect. If the invocation does not commute
// with some active invocation, Invoke undoes
// the effect inside its atomic section and returns an error satisfying
// engine.IsConflict. On success the invocation joins the active log
// until tx ends, and its entry keeps the effect's undo action, or its
// Changed flag, for a later abort.
//
// Arguments travel in a flat core.Vec passed by value — build it with
// core.Args1/Args2/... at the call site; no argument slice is ever
// allocated.
func (g *Forward) Invoke(tx *engine.Tx, mt *Method, args core.Vec, exec func() Effect) (_ core.Value, err error) {
	e, t0 := g.begin(tx, mt, &args)
	defer g.end(tx, mt.id, t0, &err)

	// Before execution: our own non-pure s1 functions, logged in the
	// pre-state; then the checks this invocation owes, except for pairs
	// whose probe needs r2; then each queued pair's non-pure s2
	// functions, captured in the state m2 executes in.
	err = g.logFns(e, mt.cmPre)
	if err == nil {
		g.gather(tx, e, mt.pre)
		err = g.captureS2(e)
	}
	if err != nil {
		return core.Value{}, err
	}

	eff := exec()
	e.inv.Ret, e.undo = eff.Ret, eff.Undo
	if eff.Changed {
		if mt.inverse == nil {
			panic("gatekeeper: " + mt.name + " reports a change but has no inverse")
		}
		e.changed = true
	}

	// After execution: our pure s1 functions (may use the return value),
	// the probes whose key needs r2 (such plans carry no fn2, enforced
	// at compile time, so queuing after execution is sound), and the
	// commutativity check against every queued active invocation.
	err = g.logFns(e, mt.cmPost)
	if err == nil {
		g.gather(tx, e, mt.post)
		err = g.check(tx, e)
	}
	if err != nil {
		return eff.Ret, err // end undoes the effect
	}
	g.record(tx, e)
	return eff.Ret, nil
}

// logFns evaluates primitive functions of the entry's own Cm into its
// log, against the structure's current state.
func (g *Forward) logFns(e *entry, fns []loggedFn) error {
	if len(fns) == 0 {
		return nil
	}
	g.bind(&e.inv, &noInv, nil)
	for _, lf := range fns {
		v, err := lf.eval(&g.ctx)
		if err != nil {
			return fmt.Errorf("gatekeeper: evaluating %s for %s: %w", lf.ft, e.inv.Method, err)
		}
		e.log[lf.slot] = v
		g.tele.IncLogEntry()
	}
	return nil
}

// captureS2 values the non-pure s2 functions of every queued check in
// the current state — the one the incoming invocation e is about to
// execute in.
func (g *Forward) captureS2(e *entry) error {
	if g.nvals == 0 {
		return nil
	}
	vals := g.arena()
	g.bind(&noInv, &e.inv, nil)
	for i := range g.checks {
		p := &g.checks[i]
		n := len(p.plan.fn2)
		if n == 0 {
			continue
		}
		g.ctx.inv1 = &p.e.inv
		for j, eval := range p.plan.fn2Eval {
			v, err := eval(&g.ctx)
			if err != nil {
				return fmt.Errorf("gatekeeper: evaluating %s for (%s,%s): %w", p.plan.fn2[j], p.e.inv.Method, e.inv.Method, err)
			}
			vals[j] = v
		}
		p.pre2, vals = vals[:n], vals[n:]
	}
	return nil
}

// mentionsRet reports whether the term references the return value of the
// given side anywhere.
func mentionsRet(t core.Term, side core.Side) bool {
	return core.AnyTerm(t, func(t core.Term) bool { r, ok := t.(core.RetTerm); return ok && r.Side == side })
}

// mentionsSide reports whether the term references an argument or return
// value of the given side anywhere.
func mentionsSide(t core.Term, side core.Side) bool {
	return mentionsRet(t, side) ||
		core.AnyTerm(t, func(t core.Term) bool { a, ok := t.(core.ArgTerm); return ok && a.Side == side })
}

// containsNonPureFn reports whether t contains a state-function
// application on the given side that is not declared pure.
func containsNonPureFn(t core.Term, side core.Side, pure map[string]bool) bool {
	return core.AnyTerm(t, func(t core.Term) bool {
		f, ok := t.(core.FnTerm)
		return ok && f.State == side && !pure[f.Fn]
	})
}

// secondStateFns collects the distinct s2-state function applications in
// a condition, the mirror image of core.FirstStateFns.
func secondStateFns(c core.Cond) []core.FnTerm {
	var out []core.FnTerm
	for _, ft := range core.FirstStateFns(core.SwapSides(c)) {
		sw := core.SwapTermSides(ft).(core.FnTerm)
		out = append(out, sw)
	}
	return out
}
