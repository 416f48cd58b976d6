package gatekeeper

import (
	"fmt"
	"sort"
	"sync"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// GEffect is the result of executing a method invocation under a general
// gatekeeper. Mutating invocations must supply exact-state Undo and Redo
// actions: Undo restores the concrete state to what it was immediately
// before the invocation, and Redo re-applies the exact change. The
// gatekeeper drives them to roll the structure back to earlier states
// when evaluating conditions that are not ONLINE-CHECKABLE, then restore
// it (§3.3.2).
type GEffect struct {
	Ret  core.Value
	Undo func()
	Redo func()
}

// jentry is one journaled mutation by an active transaction, a node of
// the seq-ordered doubly-linked journal. The list shape lets a
// transaction's entries be unlinked in O(1) each at commit or abort,
// while rollback sweeps still walk the journal from its newest end.
type jentry struct {
	seq  uint64
	tx   *engine.Tx
	undo func()
	redo func()

	prev, next *jentry
}

var jentryPool = sync.Pool{New: func() any { return new(jentry) }}

// putJentry recycles a journal node, dropping its undo/redo closures.
func putJentry(j *jentry) {
	j.seq = 0
	j.tx = nil
	j.undo = nil
	j.redo = nil
	j.prev, j.next = nil, nil
	jentryPool.Put(j)
}

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
type General struct {
	logged

	// The journal, guarded by logged.mu like the log itself.
	seq    uint64
	jHead  *jentry // oldest journaled mutation
	jTail  *jentry // newest journaled mutation
	jLen   int
	byTxJ  map[*engine.Tx][]*jentry // each tx's own journal entries, oldest first
	jLists [][]*jentry              // recycled byTxJ slices
}

// NewGeneral constructs a general gatekeeper for spec over a structure
// whose state functions are resolved (against its current state) by res.
// Any L1 specification is accepted.
func NewGeneral(spec *core.Spec, res core.StateFn) (*General, error) {
	return NewGeneralConfig(spec, res, Config{})
}

// NewGeneralConfig is NewGeneral with explicit configuration.
func NewGeneralConfig(spec *core.Spec, res core.StateFn, cfg Config) (*General, error) {
	g := &General{byTxJ: map[*engine.Tx][]*jentry{}}
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
		g.compile(plan, bind, cfg, false)
		if !plan.trivial {
			m2 := &g.methods[plan.m2id]
			m2.post = append(m2.post, plan)
		}
	}
	return g, nil
}

// Invoke executes one guarded invocation for tx, checking it against all
// active invocations from other transactions, rolling the structure back
// as needed to evaluate stateful condition terms in the right states. On
// conflict the invocation's own effect is undone before returning.
func (g *General) Invoke(tx *engine.Tx, method string, args core.Vec, exec func() GEffect) (_ core.Value, err error) {
	mid, err := g.resolve(method)
	if err != nil {
		return core.Value{}, err
	}
	e, t0 := g.begin(tx, mid, &args)
	defer g.end(tx, mid, t0, &err)
	e.seqPre = g.seq

	eff := exec()
	e.inv.Ret = eff.Ret
	var own *jentry
	if eff.Undo != nil {
		if eff.Redo == nil {
			panic("gatekeeper: GEffect with Undo but no Redo")
		}
		g.seq++
		own = jentryPool.Get().(*jentry)
		own.seq, own.tx, own.undo, own.redo = g.seq, tx, eff.Undo, eff.Redo
		g.linkJournal(own)
		g.tele.ObserveJournal(g.jLen)
		lst, seen := g.byTxJ[tx]
		if !seen {
			lst = popList(&g.jLists)
		}
		g.byTxJ[tx] = append(lst, own)
	}

	// Gather the checks (execution already happened, so r2-bearing probe
	// keys are fine here), then value their stateful terms under
	// rollback and check.
	g.gather(tx, e, g.methods[mid].post)
	g.rollbackEval(e)
	if err = g.check(tx, e); err != nil {
		if own != nil {
			own.undo()
			g.unlinkJournal(own)
			lst := g.byTxJ[tx]
			lst[len(lst)-1] = nil
			g.byTxJ[tx] = lst[:len(lst)-1]
			putJentry(own)
		}
		return eff.Ret, err
	}

	if g.record(tx, e) {
		tx.OnUndoer(g)
		tx.OnReleaser(g)
	}
	return eff.Ret, nil
}

// linkJournal appends j at the journal's newest end.
func (g *General) linkJournal(j *jentry) {
	j.prev = g.jTail
	if g.jTail != nil {
		g.jTail.next = j
	} else {
		g.jHead = j
	}
	g.jTail = j
	g.jLen++
}

// unlinkJournal removes j from the journal, preserving seq order of the
// remaining entries.
func (g *General) unlinkJournal(j *jentry) {
	if j.prev != nil {
		j.prev.next = j.next
	} else {
		g.jHead = j.next
	}
	if j.next != nil {
		j.next.prev = j.prev
	} else {
		g.jTail = j.prev
	}
	j.prev, j.next = nil, nil
	g.jLen--
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

	var firstUndone *jentry // oldest journal entry currently undone
	evalAt := func(point uint64) {
		for {
			n := g.jTail
			if firstUndone != nil {
				n = firstUndone.prev
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
	for n := firstUndone; n != nil; n = n.next {
		n.redo()
	}
}

// UndoTx undoes the transaction's journaled mutations, newest first, and
// drops them from the journal. Installed as a tx undo hook
// (engine.Undoer, so registration allocates nothing).
func (g *General) UndoTx(tx *engine.Tx) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lst := g.byTxJ[tx]
	for i := len(lst) - 1; i >= 0; i-- {
		lst[i].undo()
		g.unlinkJournal(lst[i])
		putJentry(lst[i])
		lst[i] = nil
	}
	if lst != nil {
		g.jLists = append(g.jLists, lst[:0])
	}
	delete(g.byTxJ, tx)
}

// ReleaseTx drops the transaction's journal entries (now permanent) and
// active invocations. Installed as a tx release hook (engine.Releaser);
// on abort the journal was already emptied by UndoTx.
func (g *General) ReleaseTx(tx *engine.Tx) {
	t0 := telemetry.LatClock()
	g.mu.Lock()
	defer g.mu.Unlock()
	jlst := g.byTxJ[tx]
	for i, j := range jlst {
		g.unlinkJournal(j)
		putJentry(j)
		jlst[i] = nil
	}
	if jlst != nil {
		g.jLists = append(g.jLists, jlst[:0])
	}
	delete(g.byTxJ, tx)
	g.release(tx, t0)
}

// JournalLen reports the number of journaled live mutations.
func (g *General) JournalLen() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jLen
}
