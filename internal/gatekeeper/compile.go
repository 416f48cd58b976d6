package gatekeeper

import (
	"fmt"

	"commlat/internal/core"
)

// This file compiles pair conditions into closure trees once, at
// gatekeeper construction time. The seed runtime re-substituted logged
// values into the condition AST (core.SubstTerms) and re-interpreted it
// (core.Eval) on every check, allocating a fresh substitution map each
// time; a compiled checker instead binds logged and pre-evaluated values
// by precomputed slot index and evaluates with zero allocations on the
// hot path: operands are tagged core.Values read straight out of flat
// slots, never boxed.
//
// Compiled checkers are NOT safe for concurrent use: function-application
// nodes reuse a scratch argument buffer allocated at compile time. Every
// gatekeeper runs its checkers under its own mutex, which serializes them.

// unset marks a slot whose value could not be captured (the general
// gatekeeper skips terms that fail to evaluate under rollback, exactly
// as the seed skipped their substitution); the compiled reader then
// falls back to live structural evaluation. The sentinel kind compares
// unequal to every value, so it can never be confused with a logged one.
var unset = core.Unset()

// checkCtx is the per-check evaluation context. inv1 and inv2 point at
// the first (active) and second (incoming) invocation where their owner
// already stores them — a logged gatekeeper's entries, a cascade
// scratch's own copies — so binding a side is one pointer store, never
// an invocation copy; a side no term reads points at noInv. log1 holds
// the first invocation's logged slot values; pre2 holds the
// pre-evaluated stateful values of the pair's plan (fn2Pre slots for
// forward gatekeepers, fn2 slots for general ones). Slices may be nil
// when a plan has no slots of that kind.
//
// The pointers are valid only while their owner keeps the invocations
// in place: for a logged gatekeeper, inside the atomic section that
// took its mutex (end clears them); for a cascade scratch, until reset.
type checkCtx struct {
	inv1, inv2 *core.Invocation
	log1       []core.Value
	pre2       []core.Value
}

// noInv stands in for the side of a context no invocation is bound to:
// an argument read reports "no argument", a return read yields nil.
// Never written.
var noInv core.Invocation

type checkFn func(ctx *checkCtx) (bool, error)
type termFn func(ctx *checkCtx) (core.Value, error)

// slotBinding maps a term (by canonical key) to a slot in one of the two
// context slices. src selects the slice: srcLog1 or srcPre2.
type slotBinding struct {
	src  int
	slot int
}

const (
	srcLog1 = iota
	srcPre2
)

// compileCond compiles a condition into a checker. bind resolves terms
// that have recorded values (logged primitive-function results,
// pre-evaluated state functions) to their slots; every other term is
// compiled structurally, resolving state functions through res at check
// time (sound for pure functions, which ignore state — the only
// functions a correct plan leaves unbound).
func compileCond(c core.Cond, bind map[string]slotBinding, res core.StateFn) checkFn {
	switch x := c.(type) {
	case core.TrueCond:
		return func(*checkCtx) (bool, error) { return true, nil }
	case core.FalseCond:
		return func(*checkCtx) (bool, error) { return false, nil }
	case core.NotCond:
		inner := compileCond(x.C, bind, res)
		return func(ctx *checkCtx) (bool, error) {
			b, err := inner(ctx)
			return !b, err
		}
	case core.AndCond:
		l := compileCond(x.L, bind, res)
		r := compileCond(x.R, bind, res)
		return func(ctx *checkCtx) (bool, error) {
			lb, err := l(ctx)
			if err != nil || !lb {
				return false, err
			}
			return r(ctx)
		}
	case core.OrCond:
		l := compileCond(x.L, bind, res)
		r := compileCond(x.R, bind, res)
		return func(ctx *checkCtx) (bool, error) {
			lb, err := l(ctx)
			if err != nil || lb {
				return lb, err
			}
			return r(ctx)
		}
	case core.CmpCond:
		lt := compileTerm(x.L, bind, res)
		rt := compileTerm(x.R, bind, res)
		op := x.Op
		return func(ctx *checkCtx) (bool, error) {
			l, err := lt(ctx)
			if err != nil {
				return false, err
			}
			r, err := rt(ctx)
			if err != nil {
				return false, err
			}
			return core.Cmp(op, l, r)
		}
	default:
		panic(fmt.Sprintf("gatekeeper: unknown condition %T", c))
	}
}

func compileTerm(t core.Term, bind map[string]slotBinding, res core.StateFn) termFn {
	if b, ok := bind[core.TermKey(t)]; ok {
		// Recorded value, read by slot index. Falls back to structural
		// evaluation when the recording pass could not capture it.
		live := compileTermStructural(t, bind, res)
		src, slot := b.src, b.slot
		return func(ctx *checkCtx) (core.Value, error) {
			s := ctx.log1
			if src == srcPre2 {
				s = ctx.pre2
			}
			if slot < len(s) {
				if v := s[slot]; !v.IsUnset() {
					return v, nil
				}
			}
			return live(ctx)
		}
	}
	return compileTermStructural(t, bind, res)
}

func compileTermStructural(t core.Term, bind map[string]slotBinding, res core.StateFn) termFn {
	switch x := t.(type) {
	case core.ArgTerm:
		idx := x.Index
		if x.Side == core.First {
			return func(ctx *checkCtx) (core.Value, error) {
				if idx < 0 || idx >= ctx.inv1.Args.Len() {
					return core.Value{}, fmt.Errorf("core: %s has no argument %d", ctx.inv1.Method, idx)
				}
				return ctx.inv1.Args.At(idx), nil
			}
		}
		return func(ctx *checkCtx) (core.Value, error) {
			if idx < 0 || idx >= ctx.inv2.Args.Len() {
				return core.Value{}, fmt.Errorf("core: %s has no argument %d", ctx.inv2.Method, idx)
			}
			return ctx.inv2.Args.At(idx), nil
		}
	case core.RetTerm:
		if x.Side == core.First {
			return func(ctx *checkCtx) (core.Value, error) { return ctx.inv1.Ret, nil }
		}
		return func(ctx *checkCtx) (core.Value, error) { return ctx.inv2.Ret, nil }
	case core.ConstTerm:
		v := x.V
		return func(*checkCtx) (core.Value, error) { return v, nil }
	case core.FnTerm:
		fn := x.Fn
		argFns := make([]termFn, len(x.Args))
		for i, a := range x.Args {
			argFns[i] = compileTerm(a, bind, res)
		}
		// Scratch argument buffer, allocated once at compile time and
		// reused on every call. Safe because the owning gatekeeper
		// serializes checks under its mutex (see package note above);
		// nested FnTerms each compile to their own closure with their
		// own buffer, so recursion cannot clobber it.
		scratch := make([]core.Value, len(argFns))
		return func(ctx *checkCtx) (core.Value, error) {
			if res == nil {
				return core.Value{}, fmt.Errorf("core: no resolver for state s%s (function %s)", x.State, fn)
			}
			for i, af := range argFns {
				v, err := af(ctx)
				if err != nil {
					return core.Value{}, err
				}
				scratch[i] = v
			}
			return res(fn, scratch)
		}
	case core.ArithTerm:
		lt := compileTerm(x.L, bind, res)
		rt := compileTerm(x.R, bind, res)
		op := x.Op
		return func(ctx *checkCtx) (core.Value, error) {
			l, err := lt(ctx)
			if err != nil {
				return core.Value{}, err
			}
			r, err := rt(ctx)
			if err != nil {
				return core.Value{}, err
			}
			return core.Arith(op, l, r)
		}
	default:
		panic(fmt.Sprintf("gatekeeper: unknown term %T", t))
	}
}
