package gatekeeper

import (
	"fmt"
	"sort"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// General is a general gatekeeper (§3.3.2): a forward-style active log
// plus an undo/redo journal of the mutations performed by live
// transactions. Conditions whose s1 functions depend on the *second*
// invocation (not ONLINE-CHECKABLE, e.g. union-find's rep(s1, c)) are
// evaluated by rolling the structure back to the recorded state, querying
// it, and re-applying the journal — all inside the gatekeeper's atomic
// section.
//
// Rolling back only the journal of live transactions evaluates the
// condition in a history C-equivalent to the real one: mutations by
// committed transactions were checked to commute with every still-active
// invocation, so they can be (virtually) reordered before it. This is the
// same stance the paper's union-find gatekeeper takes when it undoes only
// the "potentially interfering" active unions.
//
// The journal holds no records of its own: it is threaded through the
// entries of the mutations it journals (see logged), so a mutation is
// one entry from its execution to its transaction's end.
type General struct {
	logged
}

// NewGeneral constructs a general gatekeeper for spec over a structure
// whose state functions are resolved (against its current state) by res.
// Any L1 specification is accepted.
func NewGeneral(spec *core.Spec, res core.StateFn) (*General, error) {
	return newGeneral(spec, res, true)
}

// newGeneral is NewGeneral with the disequality index on or off.
func newGeneral(spec *core.Spec, res core.StateFn, indexed bool) (*General, error) {
	g := &General{}
	g.init("general", spec, res)
	for i := range g.plans {
		plan := &g.plans[i]
		m1, m2 := g.methods[plan.m1id].name, g.methods[plan.m2id].name
		for _, ft := range core.FirstStateFns(plan.cond) {
			if spec.Pure[ft.Fn] {
				continue
			}
			if containsNonPureFn(ft, core.Second, spec.Pure) {
				return nil, fmt.Errorf("gatekeeper: (%s,%s): s2 function nested inside %s(s1,...) is not supported", m1, m2, ft.Fn)
			}
			plan.fn1 = append(plan.fn1, ft)
			plan.fn1Eval = append(plan.fn1Eval, compileTerm(ft, nil, res))
		}
		for _, ft := range secondStateFns(plan.cond) {
			if spec.Pure[ft.Fn] {
				continue
			}
			if containsNonPureFn(ft, core.First, spec.Pure) {
				return nil, fmt.Errorf("gatekeeper: (%s,%s): s1 function nested inside %s(s2,...) is not supported", m1, m2, ft.Fn)
			}
			plan.fn2 = append(plan.fn2, ft)
			plan.fn2Eval = append(plan.fn2Eval, compileTerm(ft, nil, res))
		}
		bind := map[string]slotBinding{}
		for i, ft := range plan.fn1 {
			bind[core.TermKey(ft)] = slotBinding{src: srcLog1, slot: i}
		}
		for i, ft := range plan.fn2 {
			bind[core.TermKey(ft)] = slotBinding{src: srcPre2, slot: i}
		}
		// General gatekeepers keep no logs, so guards whose x term applies
		// a non-pure state function are rejected (union-find's union pairs
		// stay on the scan). Every gather runs after execution, so r2 in a
		// probe key needs no special scheduling.
		g.compile(plan, bind, indexed, false)
		if !plan.trivial {
			m2 := &g.methods[plan.m2id]
			m2.post = append(m2.post, plan)
		}
	}
	return g, nil
}

// Invoke executes one guarded invocation of mt's method (a handle from
// g.Method) for tx, checking it against all active invocations from
// other transactions, rolling the structure back as needed to evaluate
// stateful condition terms in the right states. On conflict the
// invocation's own effect is undone before returning.
func (g *General) Invoke(tx *engine.Tx, mt *Method, args core.Vec, exec func() Effect) (_ core.Value, err error) {
	e, t0 := g.begin(tx, mt, &args)
	defer g.end(tx, mt.id, t0, &err)
	e.seqPre = g.seq

	eff := exec()
	e.inv.Ret, e.undo = eff.Ret, eff.Undo
	if eff.Changed {
		panic("gatekeeper: general gatekeeper Effect with Changed: it journals Undo and Redo")
	}
	if eff.Undo != nil {
		if eff.Redo == nil {
			panic("gatekeeper: general gatekeeper Effect with Undo but no Redo")
		}
		e.redo = eff.Redo
		g.linkJournal(e)
		g.tele.ObserveJournal(g.jLen)
	}

	// Gather the checks (execution already happened, so r2-bearing probe
	// keys are fine here), then value their stateful terms under
	// rollback and check.
	g.gather(tx, e, mt.post)
	g.rollbackEval(e)
	if err = g.check(tx, e); err != nil {
		return eff.Ret, err // end undoes the effect and unjournals it
	}
	g.record(tx, e)
	return eff.Ret, nil
}

// linkJournal journals e's mutation at the journal's newest end.
func (l *logged) linkJournal(e *entry) {
	l.seq++
	e.seq, e.jprev = l.seq, l.jTail
	if l.jTail != nil {
		l.jTail.jnext = e
	}
	l.jTail = e
	l.jLen++
}

// unlinkJournal takes e's mutation out of the journal, preserving seq
// order of the remaining entries.
func (l *logged) unlinkJournal(e *entry) {
	if e.jprev != nil {
		e.jprev.jnext = e.jnext
	}
	if e.jnext != nil {
		e.jnext.jprev = e.jprev
	} else {
		l.jTail = e.jprev
	}
	e.seq, e.jprev, e.jnext = 0, nil, nil
	l.jLen--
}

// rollbackEval values the stateful terms of every queued check of the
// incoming invocation e in the states they belong to. Evaluation at
// "state seqPre" means: every journal entry with seq > seqPre undone.
// One backward sweep over the journal pauses at each required rollback
// point — each active entry's seqPre for its fn1 terms, e's own for
// every check's fn2 terms — to evaluate into the checks' value windows,
// then replays the journal forward. Slots start unset; terms that fail
// to evaluate stay so and are evaluated live (against the restored
// current state) by the compiled checker.
func (g *General) rollbackEval(e *entry) {
	if g.nvals == 0 {
		return
	}
	vals := g.arena()
	needState := map[uint64][]int{} // rollback point -> indices into checks needing fn1 there
	needS2 := false
	for i := range g.checks {
		p := &g.checks[i]
		n1, n2 := len(p.plan.fn1), len(p.plan.fn2)
		p.log1, p.pre2, vals = vals[:n1], vals[n1:n1+n2], vals[n1+n2:]
		if n1 > 0 {
			needState[p.e.seqPre] = append(needState[p.e.seqPre], i)
		}
		if n2 > 0 {
			needS2 = true
		}
	}
	g.tele.IncRollback()

	points := make([]uint64, 0, len(needState)+1)
	for p := range needState {
		points = append(points, p)
	}
	if needS2 {
		points = append(points, e.seqPre)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] > points[j] })

	var firstUndone *entry // oldest journaled entry currently undone
	evalAt := func(point uint64) {
		for {
			n := g.jTail
			if firstUndone != nil {
				n = firstUndone.jprev
			}
			if n == nil || n.seq <= point {
				return
			}
			n.undo()
			firstUndone = n
		}
	}
	seen := map[uint64]bool{}
	for _, pt := range points {
		if seen[pt] {
			continue
		}
		seen[pt] = true
		evalAt(pt)
		if needS2 && pt == e.seqPre {
			// State s2: evaluate the non-pure fn2 terms of every check.
			for i := range g.checks {
				p := &g.checks[i]
				g.bind(&p.e.inv, &e.inv, nil)
				for j, eval := range p.plan.fn2Eval {
					if v, err := eval(&g.ctx); err == nil {
						p.pre2[j] = v
					}
				}
			}
		}
		for _, i := range needState[pt] {
			p := &g.checks[i]
			g.bind(&p.e.inv, &e.inv, nil)
			for j, eval := range p.plan.fn1Eval {
				if v, err := eval(&g.ctx); err == nil {
					p.log1[j] = v
				}
			}
		}
	}
	// Replay forward in order.
	for n := firstUndone; n != nil; n = n.jnext {
		n.redo()
	}
}

// JournalLen reports the number of journaled live mutations.
func (g *General) JournalLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jLen
}
