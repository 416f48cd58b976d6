package kdtree

import "commlat/internal/core"

// Sig is the kd-tree's ADT signature.
func Sig() *core.ADTSig {
	return &core.ADTSig{Name: "kdtree", Methods: []core.MethodSig{
		{Name: "add", Params: []string{"a"}, HasRet: true},
		{Name: "remove", Params: []string{"a"}, HasRet: true},
		{Name: "nearest", Params: []string{"a"}, HasRet: true},
		{Name: "contains", Params: []string{"a"}, HasRet: true},
	}}
}

// DistFn is the name of the pure distance state function used by the
// specification ("dist" in figure 4; squared Euclidean here).
const DistFn = "dist"

// Spec is the commutativity specification of figure 4:
//
//	(1) nearest(a) ~ nearest(b): always
//	(2) nearest(a)/r1 ~ add(b)/r2: r2 = false ∨ dist(a,b) > dist(a,r1)
//	(3) nearest(a)/r1 ~ remove(b)/r2: (a ≠ b ∧ r1 ≠ b) ∨ r2 = false
//	(4-6) mutators: a ≠ b ∨ (r1 = false ∧ r2 = false)
//
// Per the paper's footnote 5 a full specification also includes the
// conditions for the mirrored pairs, and for (remove, nearest) the mirror
// cannot be the literal role swap of (3): with remove first, "b is not
// the query point or the answer" no longer pins the answer, because the
// removed point may have been what nearest *would* have returned (our
// brute-force checker exhibits the counterexample). The valid directed
// condition requires the removed point to be strictly farther from the
// query than the returned answer:
//
//	(3') remove(b)/r1 ~ nearest(a)/r2: r1 = false ∨ b = a ∨ dist(a,b) > dist(a,r2)
//
// dist is a pure function, so the specification is ONLINE-CHECKABLE: a
// forward gatekeeper logs (a, dist(a, r1)) when nearest runs — exactly
// the log the paper describes in §3.3.1.
func Spec() *core.Spec {
	neOrBothFalse := core.Or(core.Ne(core.Arg1(0), core.Arg2(0)),
		core.And(core.Eq(core.Ret1(), core.Lit(false)), core.Eq(core.Ret2(), core.Lit(false))))
	s := core.NewSpec(Sig())
	s.DeclarePure(DistFn)
	s.Set("nearest", "nearest", core.True())
	s.Set("nearest", "add", core.Or(
		core.Eq(core.Ret2(), core.Lit(false)),
		core.Gt(core.Fn2(DistFn, core.Arg1(0), core.Arg2(0)), core.Fn1(DistFn, core.Arg1(0), core.Ret1())),
	))
	// (3): nearest active, remove arrives.
	s.Set("nearest", "remove", core.Or(
		core.And(core.Ne(core.Arg1(0), core.Arg2(0)), core.Ne(core.Ret1(), core.Arg2(0))),
		core.Eq(core.Ret2(), core.Lit(false)),
	))
	// (3'): remove active, nearest arrives (directed mirror; see above),
	// declared oriented so specvet accepts a mirror that is not (3)'s swap.
	s.SetOriented("nearest", "remove")
	s.Set("remove", "nearest", core.Or(
		core.Eq(core.Ret1(), core.Lit(false)),
		core.Eq(core.Arg1(0), core.Arg2(0)),
		core.Gt(core.Fn2(DistFn, core.Arg2(0), core.Arg1(0)), core.Fn2(DistFn, core.Arg2(0), core.Ret2())),
	))
	s.Set("add", "add", neOrBothFalse)
	s.Set("add", "remove", neOrBothFalse)
	s.Set("remove", "remove", neOrBothFalse)
	// contains extends figure 4 the same way the set's figure 2 treats
	// it: a contains is insulated from a mutator that touched a
	// different point or mutated nothing, and read-only pairs always
	// commute.
	neOrMutFalse := core.Or(core.Ne(core.Arg1(0), core.Arg2(0)), core.Eq(core.Ret1(), core.Lit(false)))
	s.Set("add", "contains", neOrMutFalse)
	s.Set("remove", "contains", neOrMutFalse)
	s.Set("contains", "contains", core.True())
	s.Set("nearest", "contains", core.True())
	return s
}

// Resolve implements the specification's state functions for any state
// (dist is pure, so no state is needed); it is the resolver handed to
// gatekeepers guarding kd-trees.
func Resolve(fn string, args []core.Value) (core.Value, error) {
	if fn != DistFn {
		return core.Value{}, core.ErrUnknownFn(fn)
	}
	a, aok := args[0].AsVec()
	b, bok := args[1].AsVec()
	if !aok || !bok {
		return core.Value{}, core.ErrBadArgs(fn)
	}
	return core.VFloat(DistSq(a, b)), nil
}
