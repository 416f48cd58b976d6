package gatekeeper

import (
	"fmt"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// The kv fixture exercises the forward gatekeeper's two non-pure
// scheduling paths, which the set/kd specs never touch:
//
//   - cmPre: put's condition uses lookup(s1, k1) — a non-pure function of
//     the FIRST state over first-invocation arguments, evaluated and
//     logged in the pre-state before put executes;
//   - fn2Pre: the directed mirror uses lookup(s2, k2) — a non-pure
//     function of the SECOND state with no r2 dependency, pre-evaluated
//     against each active invocation before the new one executes.
//
// Conditions (both directions valid; brute-forced below):
//
//	put(k1,v1)/r1 ~ put(k2,v2)/r2: k1 ≠ k2 ∨ (r1 = v1 ∧ r2 = v2)
//	put(k1,v1)    ~ get(k2):       k1 ≠ k2 ∨ lookup(s1,k1) = v1
//	get(k1)       ~ put(k2,v2):    k1 ≠ k2 ∨ lookup(s2,k2) = v2
//	get ~ get: always
func kvOnlineSpec() *core.Spec {
	sig := &core.ADTSig{Name: "kv", Methods: []core.MethodSig{
		{Name: "put", Params: []string{"k", "v"}, HasRet: true},
		{Name: "get", Params: []string{"k"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	s.Set("get", "get", core.True())
	s.Set("put", "put", core.Or(
		core.Ne(core.Arg1(0), core.Arg2(0)),
		core.And(core.Eq(core.Ret1(), core.Arg1(1)), core.Eq(core.Ret2(), core.Arg2(1))),
	))
	// Directed: put active, get arrives — the put must not have changed
	// its key's value (lookup evaluated in the put's pre-state: cmPre).
	s.Set("put", "get", core.Or(
		core.Ne(core.Arg1(0), core.Arg2(0)),
		core.Eq(core.Fn1("lookup", core.Arg1(0)), core.Arg1(1)),
	))
	// Directed: get active, put arrives — the put must write the value
	// its key already has (lookup evaluated in the put's pre-state,
	// which is s2: fn2Pre).
	s.Set("get", "put", core.Or(
		core.Ne(core.Arg1(0), core.Arg2(0)),
		core.Eq(core.Fn2("lookup", core.Arg2(0)), core.Arg2(1)),
	))
	return s
}

// fkv is a kv store guarded by the forward gatekeeper.
type fkv struct {
	g *Forward
	m map[int64]int64
}

func newFKV(t *testing.T, init map[int64]int64) *fkv {
	t.Helper()
	kv := &fkv{m: map[int64]int64{}}
	for k, v := range init {
		kv.m[k] = v
	}
	g, err := NewForward(kvOnlineSpec(), func(fn string, args []core.Value) (core.Value, error) {
		if fn != "lookup" {
			return core.Value{}, core.ErrUnknownFn(fn)
		}
		return core.VInt(kv.m[args[0].Int()]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kv.g = g
	return kv
}

func (kv *fkv) put(tx *engine.Tx, k, v int64) (int64, error) {
	ret, err := kv.g.Invoke(tx, kv.g.Method("put"), core.MakeVec(core.V(k), core.V(v)), func() Effect {
		old := kv.m[k]
		if old == v {
			return Effect{Ret: core.VInt(old)}
		}
		kv.m[k] = v
		return Effect{Ret: core.VInt(old), Undo: func() { kv.m[k] = old }}
	})
	if err != nil {
		return 0, err
	}
	return ret.Int(), nil
}

func (kv *fkv) get(tx *engine.Tx, k int64) (int64, error) {
	ret, err := kv.g.Invoke(tx, kv.g.Method("get"), core.MakeVec(core.V(k)), func() Effect {
		return Effect{Ret: core.VInt(kv.m[k])}
	})
	if err != nil {
		return 0, err
	}
	return ret.Int(), nil
}

// kvModel brute-forces the spec (both orientations).
type kvModel struct{ m map[int64]int64 }

func newKVModel(init map[int64]int64) *kvModel {
	m := &kvModel{m: map[int64]int64{}}
	for k, v := range init {
		m.m[k] = v
	}
	return m
}

func (m *kvModel) Clone() core.Model { return newKVModel(m.m) }

func (m *kvModel) Apply(method string, args []core.Value) (core.Value, error) {
	k := args[0].Int()
	switch method {
	case "put":
		old := m.m[k]
		m.m[k] = args[1].Int()
		return core.VInt(old), nil
	case "get":
		return core.VInt(m.m[k]), nil
	default:
		return core.Value{}, core.ErrUnknownFn(method)
	}
}

func (m *kvModel) StateKey() string {
	s := ""
	for k := int64(0); k < 4; k++ {
		s += fmt.Sprintf("%d=%d;", k, m.m[k])
	}
	return s
}

func (m *kvModel) StateFn(fn string, args []core.Value) (core.Value, error) {
	if fn != "lookup" {
		return core.Value{}, core.ErrUnknownFn(fn)
	}
	return core.VInt(m.m[args[0].Int()]), nil
}

func TestKVOnlineSpecSound(t *testing.T) {
	spec := kvOnlineSpec()
	if got := spec.Classify(); got != core.ClassOnline {
		t.Fatalf("class = %v, want ONLINE-CHECKABLE", got)
	}
	states := []core.Model{
		newKVModel(nil),
		newKVModel(map[int64]int64{1: 1}),
		newKVModel(map[int64]int64{1: 2, 2: 1}),
	}
	var calls []core.Call
	for k := int64(1); k <= 2; k++ {
		calls = append(calls, core.Call{Method: "get", Args: []core.Value{core.V(k)}})
		for v := int64(0); v <= 2; v++ {
			calls = append(calls, core.Call{Method: "put", Args: []core.Value{core.V(k), core.V(v)}})
		}
	}
	bad, err := core.CheckCondSound(spec, states, calls)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bad {
		t.Errorf("violation: %s", v)
	}
}

func TestForwardKVCmPreLogging(t *testing.T) {
	// put active (same-value, so lookup(s1,k)=v holds), get arrives:
	// the pre-state log must let it pass.
	kv := newFKV(t, map[int64]int64{1: 10})
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if _, err := kv.put(tx1, 1, 10); err != nil {
		t.Fatal(err)
	}
	if v, err := kv.get(tx2, 1); err != nil || v != 10 {
		t.Fatalf("get after same-value put = %v, %v (should commute)", v, err)
	}

	// A value-changing put conflicts with a later get of the same key,
	// via the logged pre-state lookup.
	kv2 := newFKV(t, map[int64]int64{1: 10})
	tx3, tx4 := engine.NewTx(), engine.NewTx()
	defer tx3.Abort()
	defer tx4.Abort()
	if _, err := kv2.put(tx3, 1, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := kv2.get(tx4, 1); !engine.IsConflict(err) {
		t.Fatalf("get after changing put should conflict, got %v", err)
	}
	if v, err := kv2.get(tx4, 2); err != nil || v != 0 {
		t.Fatalf("unrelated get = %v, %v", v, err)
	}
}

func TestForwardKVFn2PreEvaluation(t *testing.T) {
	// get active, put arrives: lookup(s2, k) is pre-evaluated before the
	// put executes — a same-value put passes, a changing put conflicts
	// and is rolled back.
	kv := newFKV(t, map[int64]int64{1: 10})
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if v, err := kv.get(tx1, 1); err != nil || v != 10 {
		t.Fatalf("get = %v, %v", v, err)
	}
	if _, err := kv.put(tx2, 1, 10); err != nil {
		t.Fatalf("same-value put should commute with the read: %v", err)
	}
	if _, err := kv.put(tx2, 1, 99); !engine.IsConflict(err) {
		t.Fatalf("changing put should conflict with the read, got %v", err)
	}
	if kv.m[1] != 10 {
		t.Errorf("conflicting put not rolled back: m[1] = %d", kv.m[1])
	}
	if _, err := kv.put(tx2, 2, 5); err != nil {
		t.Fatalf("other-key put: %v", err)
	}
}

// TestForwardKVMatchesOracle: exhaustive allow/deny comparison against
// the interpreted condition with true pre-state bindings.
func TestForwardKVMatchesOracle(t *testing.T) {
	spec := kvOnlineSpec()
	var calls []core.Call
	for k := int64(1); k <= 2; k++ {
		calls = append(calls, core.Call{Method: "get", Args: []core.Value{core.V(k)}})
		for v := int64(0); v <= 2; v++ {
			calls = append(calls, core.Call{Method: "put", Args: []core.Value{core.V(k), core.V(v)}})
		}
	}
	states := []map[int64]int64{{}, {1: 1}, {1: 2, 2: 1}}
	for _, st := range states {
		for _, c1 := range calls {
			for _, c2 := range calls {
				// Oracle.
				m0 := newKVModel(st)
				pre1 := m0.Clone()
				mid := m0.Clone()
				r1, err := mid.Apply(c1.Method, c1.Args)
				if err != nil {
					t.Fatal(err)
				}
				pre2 := mid.Clone()
				post := mid.Clone()
				r2, err := post.Apply(c2.Method, c2.Args)
				if err != nil {
					t.Fatal(err)
				}
				env := &core.PairEnv{
					Inv1: core.NewInvocation(c1.Method, c1.Args, r1),
					Inv2: core.NewInvocation(c2.Method, c2.Args, r2),
					S1:   pre1.StateFn,
					S2:   pre2.StateFn,
				}
				want, err := core.Eval(spec.Cond(c1.Method, c2.Method), env)
				if err != nil {
					t.Fatal(err)
				}

				// Gatekeeper.
				kv := newFKV(t, st)
				tx1, tx2 := engine.NewTx(), engine.NewTx()
				invoke := func(tx *engine.Tx, c core.Call) error {
					if c.Method == "get" {
						_, err := kv.get(tx, c.Args[0].Int())
						return err
					}
					_, err := kv.put(tx, c.Args[0].Int(), c.Args[1].Int())
					return err
				}
				if err := invoke(tx1, c1); err != nil {
					t.Fatalf("first invocation conflicted: %v", err)
				}
				err = invoke(tx2, c2)
				got := err == nil
				if err != nil && !engine.IsConflict(err) {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("state %v: %s%v then %s%v: gatekeeper=%v oracle=%v",
						st, c1.Method, c1.Args, c2.Method, c2.Args, got, want)
				}
				tx2.Abort()
				tx1.Abort()
			}
		}
	}
}
