package commlat_test

import (
	"testing"

	"commlat"
)

// undoFunc is a closure as an Undoer, for tests.
type undoFunc func()

func (f undoFunc) UndoTx(*commlat.Tx) { f() }

// TestFacade exercises the public façade end to end: build a spec,
// classify it, order it in the lattice, synthesize locks, and run
// transactions — the README's advertised API.
func TestFacade(t *testing.T) {
	sig := &commlat.ADTSig{Name: "counter", Methods: []commlat.MethodSig{
		{Name: "inc", Params: []string{"x"}},
		{Name: "get", HasRet: true},
	}}
	spec := commlat.NewSpec(sig)
	spec.Set("inc", "inc", commlat.True())
	spec.Set("inc", "get", commlat.False())
	spec.Set("get", "get", commlat.True())

	if got := spec.Classify(); got != commlat.ClassSimple {
		t.Fatalf("class = %v", got)
	}
	if !commlat.Bottom(sig).LE(spec) {
		t.Error("⊥ should be below every spec")
	}
	if !commlat.Implies(commlat.False(), commlat.Ne(commlat.Arg1(0), commlat.Arg2(0))) {
		t.Error("false should imply anything")
	}

	scheme, err := commlat.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	mgr := commlat.NewLockManager(scheme.Reduce(), nil)

	total := 0
	tx1 := commlat.NewTx()
	if _, err := mgr.Invoke(tx1, mgr.Method("inc"), commlat.MakeArgs(commlat.V(int64(1))), func() commlat.Value {
		total++
		tx1.OnUndoer(undoFunc(func() { total-- }))
		return commlat.Value{}
	}); err != nil {
		t.Fatal(err)
	}
	tx2 := commlat.NewTx()
	_, err = mgr.Invoke(tx2, mgr.Method("get"), commlat.Args{}, func() commlat.Value { return commlat.V(int64(total)) })
	if !commlat.IsConflict(err) {
		t.Fatalf("get under live inc should conflict, got %v", err)
	}
	tx2.Abort()
	tx1.Abort()
	if total != 0 {
		t.Errorf("undo failed: total = %d", total)
	}
}

// TestFacadeGatekeepers builds both gatekeeper kinds through the façade.
func TestFacadeGatekeepers(t *testing.T) {
	sig := &commlat.ADTSig{Name: "reg", Methods: []commlat.MethodSig{
		{Name: "put", Params: []string{"k"}, HasRet: true},
		{Name: "get", Params: []string{"k"}, HasRet: true},
	}}
	online := commlat.NewSpec(sig)
	online.Set("put", "put", commlat.Ne(commlat.Arg1(0), commlat.Arg2(0)))
	online.Set("put", "get", commlat.Or(commlat.Ne(commlat.Arg1(0), commlat.Arg2(0)), commlat.Eq(commlat.Ret1(), commlat.Lit(false))))
	online.Set("get", "get", commlat.True())
	if _, err := commlat.NewForwardGatekeeper(online, nil); err != nil {
		t.Fatalf("forward gatekeeper: %v", err)
	}

	general := commlat.NewSpec(sig)
	general.Set("put", "put", commlat.False())
	general.Set("put", "get", commlat.Ne(commlat.Fn1("lookup", commlat.Arg2(0)), commlat.Lit(0)))
	general.Set("get", "get", commlat.True())
	if _, err := commlat.NewForwardGatekeeper(general, nil); err == nil {
		t.Error("forward gatekeeper should reject the general spec")
	}
	if _, err := commlat.NewGeneralGatekeeper(general, nil); err != nil {
		t.Fatalf("general gatekeeper: %v", err)
	}
}
