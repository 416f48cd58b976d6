package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Side identifies which invocation of a method pair a term refers to:
// the first (earlier) invocation m1 or the second (later) invocation m2.
type Side int

// The two sides of a method pair.
const (
	First  Side = 1
	Second Side = 2
)

func (s Side) String() string {
	switch s {
	case First:
		return "1"
	case Second:
		return "2"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == First {
		return Second
	}
	return First
}

// ArithOp is an arithmetic connective of L1.
type ArithOp int

// Arithmetic connectives.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return "?"
	}
}

// Term is a value-producing expression of the logic L1 (figure 1 of the
// paper): an argument or return value of one of the two invocations, a
// constant, a function evaluated against one of the two abstract states,
// or an arithmetic combination of terms.
type Term interface {
	isTerm()
	String() string
}

// ArgTerm refers to argument Index (0-based) of the invocation on Side.
type ArgTerm struct {
	Side  Side
	Index int
}

// RetTerm refers to the return value of the invocation on Side.
type RetTerm struct {
	Side Side
}

// ConstTerm is a literal constant.
type ConstTerm struct {
	V Value
}

// FnTerm applies the named function against the abstract state of Side
// (s1 or s2). State-independent helper functions (such as a partition map
// or a distance metric over constants) are still routed through a side so
// that evaluation knows which environment resolves them; conventionally
// they are attached to the side of their first argument.
type FnTerm struct {
	Fn    string
	State Side
	Args  []Term
}

// ArithTerm combines two terms with an arithmetic connective.
type ArithTerm struct {
	Op   ArithOp
	L, R Term
}

func (ArgTerm) isTerm()   {}
func (RetTerm) isTerm()   {}
func (ConstTerm) isTerm() {}
func (FnTerm) isTerm()    {}
func (ArithTerm) isTerm() {}

// The String forms are the prover's term keys (termKey), built once per
// comparison at every level of an implication proof: plain concatenation,
// not fmt.
func (t ArgTerm) String() string { return "v" + t.Side.String() + "[" + strconv.Itoa(t.Index) + "]" }
func (t RetTerm) String() string { return "r" + t.Side.String() }
func (t ConstTerm) String() string {
	if s, ok := t.V.AsString(); ok {
		return fmt.Sprintf("%q", s)
	}
	return t.V.String()
}
func (t FnTerm) String() string {
	args := make([]string, len(t.Args))
	for i, a := range t.Args {
		args[i] = a.String()
	}
	return t.Fn + "@s" + t.State.String() + "(" + strings.Join(args, ", ") + ")"
}
func (t ArithTerm) String() string {
	return fmt.Sprintf("(%s %s %s)", t.L, t.Op, t.R)
}

// Arg1 returns a term for argument i of the first invocation.
func Arg1(i int) Term { return ArgTerm{Side: First, Index: i} }

// Arg2 returns a term for argument i of the second invocation.
func Arg2(i int) Term { return ArgTerm{Side: Second, Index: i} }

// Ret1 is the return value of the first invocation.
func Ret1() Term { return RetTerm{Side: First} }

// Ret2 is the return value of the second invocation.
func Ret2() Term { return RetTerm{Side: Second} }

// Lit returns a constant term with the (normalized) value v. It accepts
// any Go value for spec-construction convenience; the tagged Value
// constructors normalize it once, here, at spec-build time.
func Lit(v any) Term { return ConstTerm{V: V(v)} }

// Fn1 applies fn in the abstract state of the first invocation.
func Fn1(fn string, args ...Term) Term { return FnTerm{Fn: fn, State: First, Args: args} }

// Fn2 applies fn in the abstract state of the second invocation.
func Fn2(fn string, args ...Term) Term { return FnTerm{Fn: fn, State: Second, Args: args} }

// Add, Sub, Mul, Div build arithmetic terms.
func Add(l, r Term) Term { return ArithTerm{Op: OpAdd, L: l, R: r} }

// Sub builds l - r.
func Sub(l, r Term) Term { return ArithTerm{Op: OpSub, L: l, R: r} }

// Mul builds l * r.
func Mul(l, r Term) Term { return ArithTerm{Op: OpMul, L: l, R: r} }

// Div builds l / r.
func Div(l, r Term) Term { return ArithTerm{Op: OpDiv, L: l, R: r} }

// SwapTermSides returns t with every reference to the first invocation
// rewritten to the second and vice versa. It realizes the symmetry
// f(m1, m2) == swap(f)(m2, m1) used when looking up a condition for a
// method pair in the opposite order.
func SwapTermSides(t Term) Term {
	switch x := t.(type) {
	case ArgTerm:
		return ArgTerm{Side: x.Side.Other(), Index: x.Index}
	case RetTerm:
		return RetTerm{Side: x.Side.Other()}
	case ConstTerm:
		return x
	case FnTerm:
		args := make([]Term, len(x.Args))
		for i, a := range x.Args {
			args[i] = SwapTermSides(a)
		}
		return FnTerm{Fn: x.Fn, State: x.State.Other(), Args: args}
	case ArithTerm:
		return ArithTerm{Op: x.Op, L: SwapTermSides(x.L), R: SwapTermSides(x.R)}
	default:
		panic(fmt.Sprintf("core: unknown term %T", t))
	}
}

// AnyTerm reports whether pred holds of t or of one of its subterms,
// asked in pre-order and stopping at the first that does.
func AnyTerm(t Term, pred func(Term) bool) bool {
	if pred(t) {
		return true
	}
	switch x := t.(type) {
	case FnTerm:
		for _, a := range x.Args {
			if AnyTerm(a, pred) {
				return true
			}
		}
	case ArithTerm:
		return AnyTerm(x.L, pred) || AnyTerm(x.R, pred)
	}
	return false
}

// termSides reports which invocation sides a term's arguments and return
// values mention, and whether it mentions a state function on each side.
type sideInfo struct {
	val  [3]bool // index by Side: mentions v/r of that side
	stat [3]bool // index by Side: mentions a function of that side's state
}

func (si *sideInfo) merge(o sideInfo) {
	for i := range si.val {
		si.val[i] = si.val[i] || o.val[i]
		si.stat[i] = si.stat[i] || o.stat[i]
	}
}

// termKey produces a canonical string key for structural comparison of
// terms (used by Simplify and Implies). The String form is already
// canonical for our constructors.
func termKey(t Term) string { return t.String() }

// TermKey exposes the canonical string key of a term, the key space
// gatekeepers use to bind a condition's terms to logged slots.
func TermKey(t Term) string { return termKey(t) }
