package abslock

import (
	"fmt"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// retSpec exercises return-value locks: a lookup-style ADT where get(k)
// returns a handle, and destroy(h) must not run concurrently with a get
// that returned the same handle — the conjunct pairs m1's RETURN with
// m2's argument, so get's lock is acquired post-execution.
func retSpec() *core.Spec {
	sig := &core.ADTSig{Name: "registry", Methods: []core.MethodSig{
		{Name: "get", Params: []string{"k"}, HasRet: true},
		{Name: "destroy", Params: []string{"h"}},
	}}
	s := core.NewSpec(sig)
	s.Set("get", "get", core.True())
	s.Set("get", "destroy", core.Ne(core.Ret1(), core.Arg2(0)))
	s.Set("destroy", "destroy", core.Ne(core.Arg1(0), core.Arg2(0)))
	return s
}

func TestRetLockScheme(t *testing.T) {
	scheme, err := Synthesize(retSpec())
	if err != nil {
		t.Fatal(err)
	}
	r := scheme.Reduce()
	if r.ModeIndex("get:ret") < 0 {
		t.Fatalf("get:ret mode missing: %v", r.ModeNames())
	}
	// get's argument lock is superfluous and reduced away.
	if r.ModeIndex("get:k") >= 0 {
		t.Error("get:k should have been reduced away")
	}
	// The ret acquisition must be scheduled post-execution.
	for _, a := range r.Acquire["get"] {
		if a.Target != TargetRet {
			t.Errorf("unexpected pre-acquisition %+v for get", a)
		}
	}
}

func TestRetLockPostConflict(t *testing.T) {
	scheme, err := Synthesize(retSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(scheme.Reduce(), nil)

	// tx1's get returns handle 7: the ret lock is taken after execution.
	tx1 := engine.NewTx()
	defer tx1.Abort()
	ret, err := m.Invoke(tx1, m.Method("get"), core.MakeVec(core.V(int64(1))), func() core.Value { return core.VInt(int64(7)) })
	if err != nil || ret != core.VInt(int64(7)) {
		t.Fatalf("get = %v, %v", ret, err)
	}
	// destroy(7) conflicts with the live get's return handle.
	tx2 := engine.NewTx()
	defer tx2.Abort()
	if err := pre(m, tx2, "destroy", core.MakeVec(core.V(int64(7)))); !engine.IsConflict(err) {
		t.Fatalf("destroy(7) should conflict, got %v", err)
	}
	// destroy(8) proceeds.
	if err := pre(m, tx2, "destroy", core.MakeVec(core.V(int64(8)))); err != nil {
		t.Fatal(err)
	}
	// The reverse direction: destroy(9) live, then a get returning 9
	// conflicts at POST-acquire — after execution — so the caller must
	// roll the execution back via the tx undo log.
	tx3, tx4 := engine.NewTx(), engine.NewTx()
	defer tx3.Abort()
	if err := pre(m, tx3, "destroy", core.MakeVec(core.V(int64(9)))); err != nil {
		t.Fatal(err)
	}
	executed := false
	_, err = m.Invoke(tx4, m.Method("get"), core.MakeVec(core.V(int64(2))), func() core.Value {
		executed = true
		return core.VInt(int64(9))
	})
	if !engine.IsConflict(err) {
		t.Fatalf("get returning a live-destroyed handle should conflict, got %v", err)
	}
	if !executed {
		t.Error("post-acquire conflicts must happen after execution")
	}
	tx4.Abort()
}

func TestManagerTooManyModesPanics(t *testing.T) {
	// Build a synthetic scheme with 65 modes.
	s := &Scheme{ADT: "big", Acquire: map[string][]Acquisition{}}
	for i := 0; i < 65; i++ {
		s.Modes = append(s.Modes, Mode{Method: fmt.Sprintf("m%d", i), Slot: "ds"})
	}
	s.Incompat = make([][]bool, 65)
	for i := range s.Incompat {
		s.Incompat[i] = make([]bool, 65)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for > 64 modes")
		}
	}()
	NewManager(s, nil)
}

// TestRetLockTheorem1 confirms soundness+completeness for the
// ret-conjunct spec too.
func TestRetLockTheorem1(t *testing.T) {
	spec := retSpec()
	scheme, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range []*Scheme{scheme, scheme.Reduce()} {
		for h1 := int64(0); h1 < 3; h1++ {
			for h2 := int64(0); h2 < 3; h2++ {
				pairs := [][2]core.Invocation{
					{core.NewInvocation("get", []core.Value{core.V(int64(1))}, core.V(h1)), core.NewInvocation("destroy", []core.Value{core.V(h2)}, core.Value{})},
					{core.NewInvocation("destroy", []core.Value{core.V(h1)}, core.Value{}), core.NewInvocation("get", []core.Value{core.V(int64(1))}, core.V(h2))},
					{core.NewInvocation("destroy", []core.Value{core.V(h1)}, core.Value{}), core.NewInvocation("destroy", []core.Value{core.V(h2)}, core.Value{})},
					{core.NewInvocation("get", []core.Value{core.V(h1)}, core.VInt(int64(9))), core.NewInvocation("get", []core.Value{core.V(h2)}, core.VInt(int64(9)))},
				}
				for _, p := range pairs {
					want, err := core.Eval(spec.Cond(p[0].Method, p[1].Method), &core.PairEnv{Inv1: p[0], Inv2: p[1]})
					if err != nil {
						t.Fatal(err)
					}
					got := schemeAllows(t, sch, nil, p[0], p[1])
					if got != want {
						t.Fatalf("allows(%v, %v) = %v, spec says %v", p[0], p[1], got, want)
					}
				}
			}
		}
	}
}
