package core

// Class ranks a condition (or specification) by which of the paper's
// sub-logics can express it, which in turn determines the cheapest
// systematic conflict-detection scheme able to implement it (§3.4):
// abstract locks for SIMPLE, forward gatekeepers for ONLINE-CHECKABLE,
// general gatekeepers for everything in L1.
type Class int

// Classification results, ordered from most to least restrictive.
const (
	ClassSimple  Class = iota // expressible in L2 (figure 6)
	ClassOnline               // expressible in L3 (figure 9)
	ClassGeneral              // requires full L1 (figure 1)
)

func (c Class) String() string {
	switch c {
	case ClassSimple:
		return "SIMPLE"
	case ClassOnline:
		return "ONLINE-CHECKABLE"
	case ClassGeneral:
		return "GENERAL"
	default:
		return "?"
	}
}

// Classify returns the most restrictive class a condition belongs to.
func Classify(c Cond) Class { return ClassifyWith(c, nil) }

// ClassifyWith classifies c treating the named functions as pure.
func ClassifyWith(c Cond, pure map[string]bool) Class {
	if IsSimple(c) {
		return ClassSimple
	}
	if IsOnlineCheckableWith(c, pure) {
		return ClassOnline
	}
	return ClassGeneral
}

// SlotRef identifies a "data member" slot of a method: one of its
// arguments (by index) or its return value. Slots are what abstract locks
// are attached to (§3.2).
type SlotRef struct {
	IsRet bool
	Arg   int
}

func (s SlotRef) String() string {
	if s.IsRet {
		return "ret"
	}
	return argSlotName(s.Arg)
}

func argSlotName(i int) string {
	// Single-argument methods conventionally call their slot "x"; further
	// arguments are x1, x2, ... for readable mode names.
	if i == 0 {
		return "x"
	}
	return "x" + string(rune('0'+i))
}

// SimpleConjunct is one conjunct of a SIMPLE condition: a disequality
// between a slot of m1 and a slot of m2, optionally through a pure key
// function (the lock-coarsening generalization of §4.2, where `a ≠ b`
// becomes `part(a) ≠ part(b)` and locks are taken on partitions).
type SimpleConjunct struct {
	X   SlotRef // slot of the first invocation
	Y   SlotRef // slot of the second invocation
	Key string  // "" for identity, otherwise a pure function name
}

// SimpleKind discriminates the three shapes a SIMPLE condition may take.
type SimpleKind int

// Shapes of a SIMPLE condition.
const (
	SimpleFalse SimpleKind = iota // methods never commute
	SimpleTrue                    // methods always commute
	SimpleConj                    // conjunction of slot disequalities
)

// SimpleForm is the normalized shape of a SIMPLE (L2) condition.
type SimpleForm struct {
	Kind      SimpleKind
	Conjuncts []SimpleConjunct
}

// AsSimple attempts to view c as a SIMPLE condition. pure names the key
// functions that may appear around slots (pass nil for strict L2, which
// admits none). The second result reports success.
func AsSimple(c Cond, pure map[string]bool) (*SimpleForm, bool) {
	c = Simplify(c)
	switch c.(type) {
	case TrueCond:
		return &SimpleForm{Kind: SimpleTrue}, true
	case FalseCond:
		return &SimpleForm{Kind: SimpleFalse}, true
	}
	var conj []SimpleConjunct
	for _, leaf := range Conjuncts(c) {
		cmp, ok := leaf.(CmpCond)
		if !ok || cmp.Op != CmpNe {
			return nil, false
		}
		lSlot, lSide, lKey, ok := slotOf(cmp.L, pure)
		if !ok {
			return nil, false
		}
		rSlot, rSide, rKey, ok := slotOf(cmp.R, pure)
		if !ok {
			return nil, false
		}
		if lKey != rKey || lSide == rSide {
			return nil, false
		}
		sc := SimpleConjunct{Key: lKey}
		if lSide == First {
			sc.X, sc.Y = lSlot, rSlot
		} else {
			sc.X, sc.Y = rSlot, lSlot
		}
		conj = append(conj, sc)
	}
	return &SimpleForm{Kind: SimpleConj, Conjuncts: conj}, true
}

// slotOf matches a term of the form v, r, or key(v)/key(r) with key pure.
func slotOf(t Term, pure map[string]bool) (SlotRef, Side, string, bool) {
	switch x := t.(type) {
	case ArgTerm:
		return SlotRef{Arg: x.Index}, x.Side, "", true
	case RetTerm:
		return SlotRef{IsRet: true}, x.Side, "", true
	case FnTerm:
		if pure == nil || !pure[x.Fn] || len(x.Args) != 1 {
			return SlotRef{}, 0, "", false
		}
		slot, side, key, ok := slotOf(x.Args[0], nil)
		if !ok || key != "" || side != x.State {
			return SlotRef{}, 0, "", false
		}
		return slot, side, x.Fn, true
	default:
		return SlotRef{}, 0, "", false
	}
}

// IsSimple reports whether c is expressible in the strict logic L2:
// true, false, or a conjunction of disequalities between plain slots of
// the two invocations.
func IsSimple(c Cond) bool {
	_, ok := AsSimple(c, nil)
	return ok
}

// IsOnlineCheckable reports whether c satisfies Definition 7: no function
// evaluated in state s1 may depend on the second invocation's arguments,
// return value, or state. Such conditions can be implemented by a forward
// gatekeeper because everything about m1 that later checks will need can
// be computed and logged when m1 executes.
func IsOnlineCheckable(c Cond) bool { return IsOnlineCheckableWith(c, nil) }

// IsOnlineCheckableWith is IsOnlineCheckable with a set of pure
// (state-independent) function names: a pure function attached to s1 is
// not really "a function of s1", so it may take second-invocation
// arguments without breaking online checkability (e.g. dist in the
// kd-tree specification).
func IsOnlineCheckableWith(c Cond, pure map[string]bool) bool {
	for _, t := range condTerms(c) {
		if !termOnlineCheckable(t, pure) {
			return false
		}
	}
	return true
}

func termOnlineCheckable(t Term, pure map[string]bool) bool {
	switch x := t.(type) {
	case FnTerm:
		if x.State == First && !pure[x.Fn] {
			for _, a := range x.Args {
				si := termSideInfoPure(a, pure)
				if si.val[Second] || si.stat[Second] {
					return false
				}
			}
		}
		for _, a := range x.Args {
			if !termOnlineCheckable(a, pure) {
				return false
			}
		}
		return true
	case ArithTerm:
		return termOnlineCheckable(x.L, pure) && termOnlineCheckable(x.R, pure)
	default:
		return true
	}
}

// termSideInfoPure reports which sides a term's arguments, return values
// and state functions mention; pure functions do not count as state
// mentions of their attached side.
func termSideInfoPure(t Term, pure map[string]bool) sideInfo {
	var si sideInfo
	switch x := t.(type) {
	case ArgTerm:
		si.val[x.Side] = true
	case RetTerm:
		si.val[x.Side] = true
	case ConstTerm:
	case FnTerm:
		if !pure[x.Fn] {
			si.stat[x.State] = true
		}
		for _, a := range x.Args {
			si.merge(termSideInfoPure(a, pure))
		}
	case ArithTerm:
		si.merge(termSideInfoPure(x.L, pure))
		si.merge(termSideInfoPure(x.R, pure))
	}
	return si
}

// condTerms collects every term appearing in a condition.
func condTerms(c Cond) []Term {
	switch x := c.(type) {
	case TrueCond, FalseCond:
		return nil
	case NotCond:
		return condTerms(x.C)
	case AndCond:
		return append(condTerms(x.L), condTerms(x.R)...)
	case OrCond:
		return append(condTerms(x.L), condTerms(x.R)...)
	case CmpCond:
		return []Term{x.L, x.R}
	default:
		return nil
	}
}

// FirstStateFns collects the distinct (function name, argument terms)
// applications evaluated in state s1 within c. These are the primitive
// functions Cm1 that a forward gatekeeper must evaluate and log when the
// first method executes (§3.3.1).
func FirstStateFns(c Cond) []FnTerm {
	var out []FnTerm
	seen := map[string]bool{}
	var walkTerm func(t Term)
	walkTerm = func(t Term) {
		switch x := t.(type) {
		case FnTerm:
			if x.State == First {
				k := x.String()
				if !seen[k] {
					seen[k] = true
					out = append(out, x)
				}
			}
			for _, a := range x.Args {
				walkTerm(a)
			}
		case ArithTerm:
			walkTerm(x.L)
			walkTerm(x.R)
		}
	}
	for _, t := range condTerms(c) {
		walkTerm(t)
	}
	return out
}
