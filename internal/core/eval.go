package core

import "fmt"

// Invocation is a recorded method invocation: the method name, its
// arguments and its return value. Arguments live in a flat inline Vec —
// recording an invocation of ≤ MaxInlineArgs arguments allocates
// nothing. For void methods Ret is the nil Value.
type Invocation struct {
	Method string
	Args   Vec
	Ret    Value
}

// Release zeroes the invocation in place — the values it holds, not the
// whole record — and returns a spilled argument list to its pool, so a
// recycled record that embeds an Invocation retains no user-type
// references.
func (inv *Invocation) Release() {
	inv.Method = ""
	inv.Args.Release()
	inv.Ret = Value{}
}

// NewInvocation builds an Invocation from an argument slice. Values are
// assumed already normalized (the tagged constructors normalize at
// construction time).
func NewInvocation(method string, args []Value, ret Value) Invocation {
	return Invocation{Method: method, Args: MakeVec(args...), Ret: ret}
}

// MakeInvocation builds an Invocation from a flat Vec without touching
// any slice.
func MakeInvocation(method string, args Vec, ret Value) Invocation {
	return Invocation{Method: method, Args: args, Ret: ret}
}

// StateFn resolves a named state function (such as rep, rank, loser, dist
// or part) against some abstract state. Implementations are provided by
// the ADT or by logs kept by a conflict detector.
type StateFn func(fn string, args []Value) (Value, error)

// PairEnv is the evaluation environment for a condition over a pair of
// invocations: the two invocations plus resolvers for functions of the two
// abstract states s1 and s2. Either resolver may be nil if the condition
// does not mention functions of that state.
type PairEnv struct {
	Inv1, Inv2 Invocation
	S1, S2     StateFn
}

// EvalTerm evaluates a term in the environment.
func EvalTerm(t Term, env *PairEnv) (Value, error) {
	switch x := t.(type) {
	case ArgTerm:
		inv := env.inv(x.Side)
		if x.Index < 0 || x.Index >= inv.Args.Len() {
			return Value{}, fmt.Errorf("core: %s has no argument %d", inv.Method, x.Index)
		}
		return inv.Args.At(x.Index), nil
	case RetTerm:
		return env.inv(x.Side).Ret, nil
	case ConstTerm:
		return x.V, nil
	case FnTerm:
		resolver := env.S1
		if x.State == Second {
			resolver = env.S2
		}
		if resolver == nil {
			return Value{}, fmt.Errorf("core: no resolver for state s%s (function %s)", x.State, x.Fn)
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := EvalTerm(a, env)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		return resolver(x.Fn, args)
	case ArithTerm:
		l, err := EvalTerm(x.L, env)
		if err != nil {
			return Value{}, err
		}
		r, err := EvalTerm(x.R, env)
		if err != nil {
			return Value{}, err
		}
		return arith(x.Op, l, r)
	default:
		return Value{}, fmt.Errorf("core: unknown term %T", t)
	}
}

func (env *PairEnv) inv(s Side) *Invocation {
	if s == First {
		return &env.Inv1
	}
	return &env.Inv2
}

// Eval evaluates a condition in the environment. It is the reference
// (interpreted) commutativity check; the synthesized detectors in
// abslock and gatekeeper are cross-validated against it.
func Eval(c Cond, env *PairEnv) (bool, error) {
	switch x := c.(type) {
	case TrueCond:
		return true, nil
	case FalseCond:
		return false, nil
	case NotCond:
		b, err := Eval(x.C, env)
		return !b, err
	case AndCond:
		l, err := Eval(x.L, env)
		if err != nil {
			return false, err
		}
		if !l {
			return false, nil
		}
		return Eval(x.R, env)
	case OrCond:
		l, err := Eval(x.L, env)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return Eval(x.R, env)
	case CmpCond:
		l, err := EvalTerm(x.L, env)
		if err != nil {
			return false, err
		}
		r, err := EvalTerm(x.R, env)
		if err != nil {
			return false, err
		}
		return Cmp(x.Op, l, r)
	default:
		return false, fmt.Errorf("core: unknown condition %T", c)
	}
}

// Cmp applies a comparison operator of L1 to two evaluated operands. It
// is the primitive Eval uses for CmpCond and is exported for compiled
// condition checkers that evaluate operands themselves.
func Cmp(op CmpOp, l, r Value) (bool, error) {
	switch op {
	case CmpEq:
		return ValueEq(l, r), nil
	case CmpNe:
		return !ValueEq(l, r), nil
	case CmpLt:
		return valueLess(l, r)
	case CmpGt:
		return valueLess(r, l)
	case CmpLe:
		gt, err := valueLess(r, l)
		return !gt, err
	case CmpGe:
		lt, err := valueLess(l, r)
		return !lt, err
	}
	return false, fmt.Errorf("core: unknown comparison %v", op)
}

// Arith applies an arithmetic connective of L1 to two evaluated
// operands, with the same numeric promotion rules as EvalTerm.
func Arith(op ArithOp, a, b Value) (Value, error) {
	return arith(op, a, b)
}
