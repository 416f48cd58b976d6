package core

// GuardedForm is the shape of a GUARDED-SIMPLE condition, the "more
// liberal abstract locking scheme that allows simple predicates to be
// evaluated before acquiring a lock" the paper's §3.2 footnote leaves to
// future work:
//
//	D ∨ (P1 ∧ P2)
//
// where D is a (possibly empty) conjunction of slot disequalities and
// each Pi is a predicate over invocation i's own arguments and return
// value only (no state functions). Such a condition can be implemented
// by locks with per-invocation mode selection: invocation i acquires a
// weak mode when Pi holds and a strong mode otherwise; weak is
// compatible with weak, everything else conflicts — so two invocations
// on a shared datum proceed exactly when P1 ∧ P2, and otherwise exactly
// when D. The precise set specification of figure 2 has this shape
// (Pi = "ri = false"), so liberal locking implements it — something
// plain abstract locking provably cannot (Theorem 1).
type GuardedForm struct {
	Kind      SimpleKind       // SimpleTrue / SimpleFalse / SimpleConj
	Conjuncts []SimpleConjunct // D
	P1, P2    Cond             // side-local guards; False when there is no weak path
}

// AsGuardedSimple attempts to view c as a GUARDED-SIMPLE condition.
// Plain SIMPLE conditions qualify with P1 = P2 = false (no weak path).
func AsGuardedSimple(c Cond) (*GuardedForm, bool) {
	c = Simplify(c)
	if form, ok := AsSimple(c, nil); ok {
		return &GuardedForm{Kind: form.Kind, Conjuncts: form.Conjuncts, P1: False(), P2: False()}, true
	}
	// Split disjuncts into slot disequalities (D) and at most one
	// side-splittable residue (P1 ∧ P2).
	var conj []SimpleConjunct
	var residue Cond
	for _, d := range Disjuncts(c) {
		if form, ok := AsSimple(d, nil); ok && form.Kind == SimpleConj {
			conj = append(conj, form.Conjuncts...)
			continue
		}
		if residue != nil {
			return nil, false // more than one non-disequality disjunct
		}
		residue = d
	}
	if residue == nil {
		return nil, false // handled by the AsSimple fast path above
	}
	var p1s, p2s []Cond
	for _, p := range Conjuncts(residue) {
		side, ok := sideLocal(p)
		if !ok {
			return nil, false
		}
		if side == First {
			p1s = append(p1s, p)
		} else {
			p2s = append(p2s, p)
		}
	}
	return &GuardedForm{
		Kind:      SimpleConj,
		Conjuncts: conj,
		P1:        Simplify(And(p1s...)),
		P2:        Simplify(And(p2s...)),
	}, true
}

// sideLocal reports which single invocation side a predicate depends on
// (predicates over constants only count as First). It rejects state
// functions — a lock manager cannot evaluate them.
func sideLocal(c Cond) (Side, bool) {
	var si sideInfo
	for _, t := range condTerms(c) {
		if hasFn(t) {
			return 0, false
		}
		si.merge(termSideInfo(t))
	}
	switch {
	case si.val[First] && si.val[Second]:
		return 0, false
	case si.val[Second]:
		return Second, true
	default:
		return First, true
	}
}

func hasFn(t Term) bool {
	return AnyTerm(t, func(t Term) bool { _, ok := t.(FnTerm); return ok })
}

// OwnEnv builds the evaluation environment for a side-local guard over a
// single invocation (bound as invocation 1).
func OwnEnv(inv Invocation) *PairEnv {
	return &PairEnv{Inv1: inv}
}

// ToFirstSide rewrites a side-2-local predicate to reference invocation
// 1, so a lock manager can evaluate any guard against the invoking
// transaction's own invocation uniformly.
func ToFirstSide(c Cond) Cond { return SwapSides(c) }

// MentionsRet reports whether the condition references the return value
// of the given side anywhere (used to schedule guarded lock acquisitions
// after execution).
func MentionsRet(c Cond, side Side) bool {
	for _, t := range condTerms(c) {
		if termMentionsRet(t, side) {
			return true
		}
	}
	return false
}

func termMentionsRet(t Term, side Side) bool {
	return AnyTerm(t, func(t Term) bool { r, ok := t.(RetTerm); return ok && r.Side == side })
}
