package unionfind

import "commlat/internal/core"

// Sig is the union-find ADT signature of figure 5.
func Sig() *core.ADTSig {
	return &core.ADTSig{Name: "unionfind", Methods: []core.MethodSig{
		{Name: "union", Params: []string{"a", "b"}},
		{Name: "find", Params: []string{"a"}, HasRet: true},
		{Name: "create", Params: []string{"c"}, HasRet: true},
	}}
}

// Spec is the commutativity specification of figure 5:
//
//	(1) union(a,b) ~ union(c,d): rep(s1,c) ≠ loser(s1,a,b) ∧ rep(s1,d) ≠ loser(s1,a,b)
//	(2) union(a,b) ~ find(c):    rep(s1,c) ≠ loser(s1,a,b)
//	(3,5,6) create commutes with nothing (the paper's simplification)
//	(4) find ~ find: always
//
// Conditions (1) and (2) evaluate rep in the FIRST invocation's state
// over the SECOND invocation's argument — the shape that defeats forward
// gatekeeping (not ONLINE-CHECKABLE, Definition 7) and motivates general
// gatekeeping. (1) names v1 as the admitted invocation, whose loser is
// fixed, so its sides do not swap blindly: the pair is oriented.
func Spec() *core.Spec {
	loser := core.Fn1("loser", core.Arg1(0), core.Arg1(1))
	s := core.NewSpec(Sig()).SetOriented("union", "union")
	s.Set("union", "union", core.And(
		core.Ne(core.Fn1("rep", core.Arg2(0)), loser),
		core.Ne(core.Fn1("rep", core.Arg2(1)), loser),
	))
	s.Set("union", "find", core.Ne(core.Fn1("rep", core.Arg2(0)), loser))
	s.Set("find", "find", core.True())
	s.Set("union", "create", core.False())
	s.Set("find", "create", core.False())
	s.Set("create", "create", core.False())
	return s
}

// Resolver returns a core.StateFn evaluating the specification's helper
// functions (rep, rank, loser) against the forest's current state,
// without mutating it.
func Resolver(f *Forest) core.StateFn {
	return func(fn string, args []core.Value) (core.Value, error) {
		switch fn {
		case "rep":
			x, ok := args[0].AsInt()
			if !ok {
				return core.Value{}, core.ErrBadArgs(fn)
			}
			return core.VInt(f.FindNoCompress(x)), nil
		case "rank":
			// Static priority: an element's rank is its id.
			x, ok := args[0].AsInt()
			if !ok {
				return core.Value{}, core.ErrBadArgs(fn)
			}
			return core.VInt(x), nil
		case "loser":
			a, aok := args[0].AsInt()
			b, bok := args[1].AsInt()
			if !aok || !bok {
				return core.Value{}, core.ErrBadArgs(fn)
			}
			return core.VInt(f.Loser(a, b)), nil
		default:
			return core.Value{}, core.ErrUnknownFn(fn)
		}
	}
}
