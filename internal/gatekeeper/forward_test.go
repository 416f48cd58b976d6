package gatekeeper

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// --- set fixture: the precise specification of figure 2 ------------------

func setSig() *core.ADTSig {
	return &core.ADTSig{Name: "set", Methods: []core.MethodSig{
		{Name: "add", Params: []string{"x"}, HasRet: true},
		{Name: "remove", Params: []string{"x"}, HasRet: true},
		{Name: "contains", Params: []string{"x"}, HasRet: true},
	}}
}

func preciseSetSpec() *core.Spec {
	neOrBothFalse := core.Or(core.Ne(core.Arg1(0), core.Arg2(0)),
		core.And(core.Eq(core.Ret1(), core.Lit(false)), core.Eq(core.Ret2(), core.Lit(false))))
	neOrR1False := core.Or(core.Ne(core.Arg1(0), core.Arg2(0)), core.Eq(core.Ret1(), core.Lit(false)))
	s := core.NewSpec(setSig())
	s.Set("add", "add", neOrBothFalse)
	s.Set("add", "remove", neOrBothFalse)
	s.Set("add", "contains", neOrR1False)
	s.Set("remove", "remove", neOrBothFalse)
	s.Set("remove", "contains", neOrR1False)
	s.Set("contains", "contains", core.True())
	return s
}

// gset is a tiny set guarded by a forward gatekeeper.
type gset struct {
	g     *Forward
	elems map[int64]bool
}

func newGSet(t *testing.T, init ...int64) *gset {
	t.Helper()
	return newGSetCfg(t, preciseSetSpec(), Config{}, init...)
}

func newGSetCfg(t *testing.T, spec *core.Spec, cfg Config, init ...int64) *gset {
	t.Helper()
	s := &gset{elems: map[int64]bool{}}
	for _, v := range init {
		s.elems[v] = true
	}
	g, err := NewForwardConfig(spec, func(fn string, args []core.Value) (core.Value, error) {
		return core.Value{}, fmt.Errorf("set has no state functions, asked for %s", fn)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.g = g
	return s
}

func (s *gset) invoke(tx *engine.Tx, method string, x int64) (bool, error) {
	return s.invokeV(tx, method, x, core.VInt(x))
}

// invokeV invokes method with an arbitrary argument value standing for
// the logical key x — e.g. float64(5.0) for 5 — to exercise the index's
// cross-type key canonicalization.
func (s *gset) invokeV(tx *engine.Tx, method string, x int64, arg core.Value) (bool, error) {
	ret, err := s.g.Invoke(tx, method, core.MakeVec(core.V(arg)), func() Effect {
		switch method {
		case "add":
			if s.elems[x] {
				return Effect{Ret: core.VBool(false)}
			}
			s.elems[x] = true
			return Effect{Ret: core.VBool(true), Undo: func() { delete(s.elems, x) }}
		case "remove":
			if !s.elems[x] {
				return Effect{Ret: core.VBool(false)}
			}
			delete(s.elems, x)
			return Effect{Ret: core.VBool(true), Undo: func() { s.elems[x] = true }}
		default:
			return Effect{Ret: core.VBool(s.elems[x])}
		}
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

func (s *gset) key() string {
	var ks []int64
	for k := range s.elems {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return fmt.Sprint(ks)
}

// --------------------------------------------------------------------------

func TestForwardRejectsGeneralSpec(t *testing.T) {
	sig := &core.ADTSig{Name: "uf", Methods: []core.MethodSig{
		{Name: "union", Params: []string{"a", "b"}},
		{Name: "find", Params: []string{"a"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	// rep(s1, c) over the second invocation's argument: not online-checkable.
	s.Set("union", "find", core.Ne(core.Fn1("rep", core.Arg2(0)), core.Fn1("loser", core.Arg1(0), core.Arg1(1))))
	s.Set("union", "union", core.False())
	s.Set("find", "find", core.True())
	if _, err := NewForward(s, nil); err == nil {
		t.Error("NewForward must reject non-ONLINE-CHECKABLE specs")
	}
}

func TestForwardNonMutatingAddsShare(t *testing.T) {
	s := newGSet(t, 5)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	r1, err := s.invoke(tx1, "add", 5)
	if err != nil || r1 != false {
		t.Fatalf("tx1 add(5) = %v, %v", r1, err)
	}
	// Under the precise spec, a second non-mutating add of the same key
	// proceeds — the precision abstract locks cannot express.
	r2, err := s.invoke(tx2, "add", 5)
	if err != nil || r2 != false {
		t.Fatalf("tx2 add(5) = %v, %v (should commute: both non-mutating)", r2, err)
	}
	// contains(5) also proceeds: the active adds did not modify the set.
	c, err := s.invoke(tx2, "contains", 5)
	if err != nil || c != true {
		t.Fatalf("contains(5) = %v, %v", c, err)
	}
}

func TestForwardMutatingConflictAndUndo(t *testing.T) {
	s := newGSet(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx2.Abort()
	r1, err := s.invoke(tx1, "add", 7)
	if err != nil || r1 != true {
		t.Fatalf("add(7) = %v, %v", r1, err)
	}
	// tx2's contains(7) would observe tx1's mutation: conflict, and the
	// (read-only) invocation leaves no trace.
	if _, err := s.invoke(tx2, "contains", 7); !engine.IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	// tx2's remove(7) would also conflict AND must be undone inside the
	// gatekeeper: 7 must still be present afterwards.
	if _, err := s.invoke(tx2, "remove", 7); !engine.IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	if !s.elems[7] {
		t.Error("conflicting remove was not undone by the gatekeeper")
	}
	// Unrelated keys proceed.
	if _, err := s.invoke(tx2, "add", 8); err != nil {
		t.Fatal(err)
	}
	// After tx1 commits, its log entries vanish and 7 is observable.
	tx1.Commit()
	if c, err := s.invoke(tx2, "contains", 7); err != nil || c != true {
		t.Fatalf("after commit contains(7) = %v, %v", c, err)
	}
}

func TestForwardAbortRollsBack(t *testing.T) {
	s := newGSet(t, 1)
	before := s.key()
	tx := engine.NewTx()
	if _, err := s.invoke(tx, "add", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.invoke(tx, "remove", 1); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if s.key() != before {
		t.Errorf("abort did not restore state: %s vs %s", s.key(), before)
	}
	if s.g.ActiveInvocations() != 0 {
		t.Errorf("active log not cleared: %d", s.g.ActiveInvocations())
	}
}

func TestForwardSameTxNeverConflicts(t *testing.T) {
	s := newGSet(t)
	tx := engine.NewTx()
	defer tx.Abort()
	for i := 0; i < 5; i++ {
		if _, err := s.invoke(tx, "add", 3); err != nil {
			t.Fatalf("self-conflict on iteration %d: %v", i, err)
		}
		if _, err := s.invoke(tx, "remove", 3); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForwardMatchesOracle is the scheme-vs-specification correspondence
// check: for every pair of invocations from two transactions, the
// gatekeeper must allow the second exactly when the interpreted condition
// (evaluated with the true s1/s2 bindings) is true — forward gatekeepers
// are sound AND complete (§3.3.1).
func TestForwardMatchesOracle(t *testing.T) {
	spec := preciseSetSpec()
	methods := []string{"add", "remove", "contains"}
	vals := []int64{1, 2}
	states := [][]int64{{}, {1}, {1, 2}, {2}}
	for _, st := range states {
		for _, m1 := range methods {
			for _, v1 := range vals {
				for _, m2 := range methods {
					for _, v2 := range vals {
						s := newGSet(t, st...)
						preKey := s.key()
						tx1, tx2 := engine.NewTx(), engine.NewTx()
						r1, err := s.invoke(tx1, m1, v1)
						if err != nil {
							t.Fatalf("first invocation conflicted on empty log: %v", err)
						}
						midKey := s.key()
						// Oracle: expected r2 and condition value.
						expR2 := oracleApply(st, m1, v1, m2, v2)
						env := &core.PairEnv{
							Inv1: core.NewInvocation(m1, []core.Value{core.V(v1)}, core.VBool(r1)),
							Inv2: core.NewInvocation(m2, []core.Value{core.V(v2)}, core.VBool(expR2)),
						}
						want, oerr := core.Eval(spec.Cond(m1, m2), env)
						if oerr != nil {
							t.Fatal(oerr)
						}
						r2, err := s.invoke(tx2, m2, v2)
						got := err == nil
						if got != want {
							t.Fatalf("state %v: %s(%d)/%v then %s(%d): gatekeeper=%v oracle=%v",
								st, m1, v1, r1, m2, v2, got, want)
						}
						if got && r2 != expR2 {
							t.Fatalf("r2 = %v, oracle %v", r2, expR2)
						}
						if !got && s.key() != midKey {
							t.Fatalf("conflicting invocation left state dirty: %s vs %s", s.key(), midKey)
						}
						tx2.Abort()
						tx1.Abort()
						if s.key() != preKey {
							t.Fatalf("aborts did not restore initial state: %s vs %s", s.key(), preKey)
						}
					}
				}
			}
		}
	}
}

// oracleApply computes the return of m2 after m1 on a fresh set.
func oracleApply(init []int64, m1 string, v1 int64, m2 string, v2 int64) bool {
	set := map[int64]bool{}
	for _, v := range init {
		set[v] = true
	}
	apply := func(m string, v int64) bool {
		switch m {
		case "add":
			if set[v] {
				return false
			}
			set[v] = true
			return true
		case "remove":
			if !set[v] {
				return false
			}
			delete(set, v)
			return true
		default:
			return set[v]
		}
	}
	apply(m1, v1)
	return apply(m2, v2)
}

// TestForwardConcurrentStress drives the gatekeeper from many goroutines
// with aborts and commits; the race detector plus the final-state
// consistency check (committed net effect only) validate atomicity.
func TestForwardConcurrentStress(t *testing.T) {
	s := newGSet(t)
	var mu sync.Mutex
	committedAdds := map[int64]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				tx := engine.NewTx()
				v := int64(r.Intn(40)) + 100*seed // mostly disjoint per worker
				if _, err := s.invoke(tx, "add", v); err != nil {
					tx.Abort()
					continue
				}
				if r.Intn(4) == 0 {
					tx.Abort()
					continue
				}
				mu.Lock()
				committedAdds[v]++
				mu.Unlock()
				tx.Commit()
			}
		}(int64(w))
	}
	wg.Wait()
	if s.g.ActiveInvocations() != 0 {
		t.Errorf("log leaked %d entries", s.g.ActiveInvocations())
	}
	for v := range committedAdds {
		if !s.elems[v] {
			t.Errorf("committed add(%d) missing from final state", v)
		}
	}
	for v := range s.elems {
		if committedAdds[v] == 0 {
			t.Errorf("element %d present but never committed", v)
		}
	}
}

// kdSig/kdSpec: figure 4 — exercises pure state functions (dist) in the
// log (the paper's own forward-gatekeeper worked example).
func kdSpec() *core.Spec {
	sig := &core.ADTSig{Name: "kdtree", Methods: []core.MethodSig{
		{Name: "add", Params: []string{"a"}, HasRet: true},
		{Name: "remove", Params: []string{"a"}, HasRet: true},
		{Name: "nearest", Params: []string{"a"}, HasRet: true},
	}}
	neOrBothFalse := core.Or(core.Ne(core.Arg1(0), core.Arg2(0)),
		core.And(core.Eq(core.Ret1(), core.Lit(false)), core.Eq(core.Ret2(), core.Lit(false))))
	s := core.NewSpec(sig)
	s.DeclarePure("dist")
	s.Set("nearest", "nearest", core.True())
	// nearest(a)/r1 ~ add(b)/r2: r2 = false ∨ dist(a,b) > dist(a,r1).
	s.Set("nearest", "add", core.Or(
		core.Eq(core.Ret2(), core.Lit(false)),
		core.Gt(core.Fn2("dist", core.Arg1(0), core.Arg2(0)), core.Fn1("dist", core.Arg1(0), core.Ret1())),
	))
	// nearest(a)/r1 ~ remove(b)/r2: (b ≠ a ∧ b ≠ r1) ∨ r2 = false.
	s.Set("nearest", "remove", core.Or(
		core.And(core.Ne(core.Arg1(0), core.Arg2(0)), core.Ne(core.Ret1(), core.Arg2(0))),
		core.Eq(core.Ret2(), core.Lit(false)),
	))
	s.Set("add", "add", neOrBothFalse)
	s.Set("add", "remove", neOrBothFalse)
	s.Set("remove", "remove", neOrBothFalse)
	return s
}

// TestForwardKdStyleLogging exercises the dist-logging path of §3.3.1 on
// a 1-D "kd-tree" (a sorted set with nearest queries).
func TestForwardKdStyleLogging(t *testing.T) {
	points := map[int64]bool{10: true, 20: true}
	dist := func(a, b int64) int64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	g, err := NewForward(kdSpec(), func(fn string, args []core.Value) (core.Value, error) {
		if fn != "dist" {
			return core.Value{}, fmt.Errorf("unknown fn %s", fn)
		}
		return core.VInt(dist(args[0].Int(), args[1].Int())), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	nearest := func(tx *engine.Tx, a int64) (int64, error) {
		ret, err := g.Invoke(tx, "nearest", core.MakeVec(core.V(a)), func() Effect {
			best, bd := int64(-1), int64(1<<62)
			for p := range points {
				if d := dist(a, p); d < bd {
					best, bd = p, d
				}
			}
			return Effect{Ret: core.VInt(best)}
		})
		if err != nil {
			return 0, err
		}
		return ret.Int(), nil
	}
	add := func(tx *engine.Tx, a int64) (bool, error) {
		ret, err := g.Invoke(tx, "add", core.MakeVec(core.V(a)), func() Effect {
			if points[a] {
				return Effect{Ret: core.VBool(false)}
			}
			points[a] = true
			return Effect{Ret: core.VBool(true), Undo: func() { delete(points, a) }}
		})
		if err != nil {
			return false, err
		}
		return ret.Bool(), nil
	}

	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	n, err := nearest(tx1, 12)
	if err != nil || n != 10 {
		t.Fatalf("nearest(12) = %v, %v", n, err)
	}
	// add(30): dist(12,30)=18 > dist(12,10)=2 — commutes.
	if ok, err := add(tx2, 30); err != nil || !ok {
		t.Fatalf("add(30) = %v, %v (should commute with nearest)", ok, err)
	}
	// add(11): dist(12,11)=1 < 2 — would have changed the answer: conflict,
	// and the insertion must be rolled back.
	if _, err := add(tx2, 11); !engine.IsConflict(err) {
		t.Fatalf("add(11) should conflict, got %v", err)
	}
	if points[11] {
		t.Error("conflicting add(11) not undone")
	}
}

func TestForwardRejectsNonPureRetFn(t *testing.T) {
	sig := &core.ADTSig{Name: "x", Methods: []core.MethodSig{{Name: "m", Params: []string{"a"}, HasRet: true}}}
	s := core.NewSpec(sig)
	// f(s1, r1) with f non-pure: cannot be evaluated in the pre-state.
	s.Set("m", "m", core.Or(core.Eq(core.Fn1("f", core.Ret1()), core.Fn2("f", core.Ret2())), core.Eq(core.Fn2("f", core.Ret2()), core.Fn1("f", core.Ret1()))))
	if _, err := NewForward(s, nil); err == nil {
		t.Error("non-pure s1 function over r1 must be rejected")
	}
}

func TestForwardStatsCounters(t *testing.T) {
	s := newGSet(t, 5)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if _, err := s.invoke(tx1, "add", 5); err != nil { // non-mutating
		t.Fatal(err)
	}
	if _, err := s.invoke(tx2, "contains", 5); err != nil { // checked vs add
		t.Fatal(err)
	}
	if _, err := s.invoke(tx2, "remove", 5); !engine.IsConflict(err) {
		t.Fatal("expected conflict")
	}
	st := s.g.Telemetry().Snapshot()
	if st.Invocations != 3 {
		t.Errorf("Invocations = %d, want 3", st.Invocations)
	}
	if st.Checks < 2 {
		t.Errorf("Checks = %d, want ≥ 2", st.Checks)
	}
	if st.Conflicts != 1 {
		t.Errorf("Conflicts = %d, want 1", st.Conflicts)
	}
	tx2.Abort()
	tx1.Abort()
}
