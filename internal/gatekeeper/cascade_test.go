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

// cset is the cascade twin of gset: a tiny set guarded by the
// lattice-cascade detector. The representation map is protected by its
// own mutex because the cascade, unlike Forward, takes no detector-wide
// lock around the exec closure.
type cset struct {
	c     *Cascade
	mu    sync.Mutex
	elems map[int64]bool
}

func newCSet(t *testing.T, init ...int64) *cset {
	t.Helper()
	return newCSetCfg(t, CascadeConfig{}, init...)
}

func newCSetCfg(t *testing.T, cfg CascadeConfig, init ...int64) *cset {
	t.Helper()
	s := &cset{elems: map[int64]bool{}}
	for _, v := range init {
		s.elems[v] = true
	}
	c, err := NewCascadeConfig(preciseSetSpec(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.c = c
	return s
}

func (s *cset) invoke(tx *engine.Tx, method string, x int64) (bool, error) {
	return s.invokeV(tx, method, x, core.VInt(x))
}

func (s *cset) invokeV(tx *engine.Tx, method string, x int64, arg core.Value) (bool, error) {
	ret, err := s.c.Invoke(tx, method, core.MakeVec(core.V(arg)), func() Effect {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch method {
		case "add":
			if s.elems[x] {
				return Effect{Ret: core.VBool(false)}
			}
			s.elems[x] = true
			return Effect{Ret: core.VBool(true), Undo: func() {
				s.mu.Lock()
				delete(s.elems, x)
				s.mu.Unlock()
			}}
		case "remove":
			if !s.elems[x] {
				return Effect{Ret: core.VBool(false)}
			}
			delete(s.elems, x)
			return Effect{Ret: core.VBool(true), Undo: func() {
				s.mu.Lock()
				s.elems[x] = true
				s.mu.Unlock()
			}}
		default:
			return Effect{Ret: core.VBool(s.elems[x])}
		}
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

func (s *cset) key() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ks []int64
	for k := range s.elems {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return fmt.Sprint(ks)
}

func TestCascadeRejectsNonPureSpec(t *testing.T) {
	sig := &core.ADTSig{Name: "uf", Methods: []core.MethodSig{
		{Name: "union", Params: []string{"a", "b"}},
		{Name: "find", Params: []string{"a"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	// rep is stateful and not declared pure: the cascade keeps no logs,
	// so it cannot evaluate rep against the first invocation's pre-state.
	s.Set("union", "find", core.Ne(core.Fn1("rep", core.Arg2(0)), core.Fn1("loser", core.Arg1(0), core.Arg1(1))))
	s.Set("union", "union", core.False())
	s.Set("find", "find", core.True())
	if _, err := NewCascade(s, nil); err == nil {
		t.Error("NewCascade must reject specs with non-pure state functions")
	}
}

// TestCascadeMatchesOracle mirrors TestForwardMatchesOracle: for every
// pair of invocations from two transactions the cascade must admit the
// second exactly when the interpreted pair condition holds — agreement
// with the forward gatekeeper is invocation-for-invocation.
func TestCascadeMatchesOracle(t *testing.T) {
	spec := preciseSetSpec()
	methods := []string{"add", "remove", "contains"}
	vals := []int64{1, 2}
	states := [][]int64{{}, {1}, {1, 2}, {2}}
	for _, st := range states {
		for _, m1 := range methods {
			for _, v1 := range vals {
				for _, m2 := range methods {
					for _, v2 := range vals {
						s := newCSet(t, st...)
						preKey := s.key()
						tx1, tx2 := engine.NewTx(), engine.NewTx()
						r1, err := s.invoke(tx1, m1, v1)
						if err != nil {
							t.Fatalf("first invocation conflicted on empty window: %v", err)
						}
						midKey := s.key()
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
							t.Fatalf("state %v: %s(%d)/%v then %s(%d): cascade=%v oracle=%v",
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
						if n := s.c.ActiveInvocations(); n != 0 {
							t.Fatalf("window leaked %d invocations", n)
						}
					}
				}
			}
		}
	}
}

func TestCascadeSameTxNeverConflicts(t *testing.T) {
	s := newCSet(t)
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

func TestCascadeMutatingConflictAndUndo(t *testing.T) {
	s := newCSet(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx2.Abort()
	if r1, err := s.invoke(tx1, "add", 7); err != nil || r1 != true {
		t.Fatalf("add(7) = %v, %v", r1, err)
	}
	if _, err := s.invoke(tx2, "contains", 7); !engine.IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	// The conflicting remove must be undone inside the detector.
	if _, err := s.invoke(tx2, "remove", 7); !engine.IsConflict(err) {
		t.Fatalf("expected conflict, got %v", err)
	}
	if s.key() != "[7]" {
		t.Error("conflicting remove was not undone by the cascade")
	}
	if _, err := s.invoke(tx2, "add", 8); err != nil {
		t.Fatal(err)
	}
	tx1.Commit()
	if c, err := s.invoke(tx2, "contains", 7); err != nil || c != true {
		t.Fatalf("after commit contains(7) = %v, %v", c, err)
	}
}

func TestCascadeAbortRollsBack(t *testing.T) {
	s := newCSet(t, 1)
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
	if n := s.c.ActiveInvocations(); n != 0 {
		t.Errorf("window leaked %d invocations", n)
	}
}

// TestCascadeOverflow exercises the mutex-guarded overflow list: with a
// one-slot table every additional live invocation spills, verdicts stay
// identical, and releases recycle both slots and overflow records.
func TestCascadeOverflow(t *testing.T) {
	s := newCSetCfg(t, CascadeConfig{SlotCapacity: 1})
	tx1, tx2, tx3 := engine.NewTx(), engine.NewTx(), engine.NewTx()
	if _, err := s.invoke(tx1, "add", 1); err != nil {
		t.Fatal(err)
	}
	// Disjoint key, but the table is full: this goes through overflow
	// and must still be admitted.
	if _, err := s.invoke(tx2, "add", 2); err != nil {
		t.Fatalf("disjoint add should commute through overflow: %v", err)
	}
	// A conflicting mutation must be caught whether its counterpart
	// lives in the slot table or the overflow list.
	if _, err := s.invoke(tx3, "remove", 1); !engine.IsConflict(err) {
		t.Fatalf("expected conflict against slot-resident add, got %v", err)
	}
	if _, err := s.invoke(tx3, "remove", 2); !engine.IsConflict(err) {
		t.Fatalf("expected conflict against overflow-resident add, got %v", err)
	}
	if st := s.c.Stats(); st.CascadeFallbacks == 0 {
		t.Error("overflow admissions not counted in CascadeFallbacks")
	}
	tx3.Abort()
	tx2.Commit()
	tx1.Commit()
	if n := s.c.ActiveInvocations(); n != 0 {
		t.Errorf("window leaked %d invocations", n)
	}
	if s.key() != "[1 2]" {
		t.Errorf("final state %s, want [1 2]", s.key())
	}
	// With the window drained the lock-free fast path must work again.
	tx := engine.NewTx()
	if _, err := s.invoke(tx, "add", 9); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
}

// TestCascadeUnkeyableArgs drives an argument core.MapKey cannot
// canonicalize (a huge integral float): the invocation must divert to
// the overflow list yet keep exact conflict verdicts.
func TestCascadeUnkeyableArgs(t *testing.T) {
	s := newCSet(t)
	huge := core.VFloat(1e300)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if _, err := s.invokeV(tx1, "add", 11, huge); err != nil {
		t.Fatal(err)
	}
	// Same unkeyable argument from another tx: both adds mutated
	// (distinct logical keys 11/12 in the rep, same spec argument), so
	// the condition is falsified.
	if _, err := s.invokeV(tx2, "add", 12, huge); !engine.IsConflict(err) {
		t.Fatalf("expected conflict on equal unkeyable args, got %v", err)
	}
	// A distinct keyable argument still commutes, even with the
	// overflow list non-empty.
	if _, err := s.invoke(tx2, "add", 13); err != nil {
		t.Fatalf("disjoint add should commute: %v", err)
	}
	tx2.Abort()
	tx1.Abort()
	if n := s.c.ActiveInvocations(); n != 0 {
		t.Errorf("window leaked %d invocations", n)
	}
}

// orderedSpec is a condition with no disequality decomposition
// (Lt(x1, x2)): every pair check must go through the method-chain scan
// path on both detectors.
func orderedSpec() *core.Spec {
	sig := &core.ADTSig{Name: "ordered", Methods: []core.MethodSig{
		{Name: "op", Params: []string{"x"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	s.Set("op", "op", core.Lt(core.Arg1(0), core.Arg2(0)))
	return s
}

// TestCascadeScanSpecAgreesWithForward compares verdicts on the
// non-indexable ordered spec: cascade scan plans against Forward's
// fallback scans.
func TestCascadeScanSpecAgreesWithForward(t *testing.T) {
	for _, second := range []int64{3, 7} {
		fw, err := NewForward(orderedSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewCascade(orderedSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		verdict := func(inv func(tx *engine.Tx, x int64) error) (bool, bool) {
			tx1, tx2 := engine.NewTx(), engine.NewTx()
			defer tx1.Abort()
			defer tx2.Abort()
			if err := inv(tx1, 5); err != nil {
				t.Fatalf("first op conflicted: %v", err)
			}
			err := inv(tx2, second)
			if err != nil && !engine.IsConflict(err) {
				t.Fatalf("non-conflict error: %v", err)
			}
			return err == nil, true
		}
		fwOK, _ := verdict(func(tx *engine.Tx, x int64) error {
			_, err := fw.Invoke(tx, fw.Method("op"), core.Args1(core.VInt(x)), func() Effect {
				return Effect{Ret: core.VBool(true)}
			})
			return err
		})
		csOK, _ := verdict(func(tx *engine.Tx, x int64) error {
			_, err := cs.Invoke(tx, "op", core.Args1(core.VInt(x)), func() Effect {
				return Effect{Ret: core.VBool(true)}
			})
			return err
		})
		if fwOK != csOK {
			t.Errorf("op(5) then op(%d): forward=%v cascade=%v", second, fwOK, csOK)
		}
		if want := second > 5; csOK != want {
			t.Errorf("op(5) then op(%d): cascade=%v, want %v", second, csOK, want)
		}
		if n := cs.ActiveInvocations(); n != 0 {
			t.Errorf("window leaked %d invocations", n)
		}
	}
}

func TestCascadeStageCounters(t *testing.T) {
	s := newCSet(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	// Disjoint keys: both are stage-1 fast admissions.
	if _, err := s.invoke(tx1, "add", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.invoke(tx2, "add", 2); err != nil {
		t.Fatal(err)
	}
	// Colliding key: a filter hit, an optimistic scan, and a conflict.
	if _, err := s.invoke(tx2, "remove", 1); !engine.IsConflict(err) {
		t.Fatal("expected conflict")
	}
	st := s.c.Stats()
	if st.FastAdmits < 2 {
		t.Errorf("FastAdmits = %d, want ≥ 2", st.FastAdmits)
	}
	if st.FilterHits == 0 {
		t.Error("FilterHits = 0, want > 0")
	}
	if st.OptScans == 0 {
		t.Error("OptScans = 0, want > 0")
	}
	if st.Conflicts != 1 {
		t.Errorf("Conflicts = %d, want 1", st.Conflicts)
	}
	if st.Invocations != 3 {
		t.Errorf("Invocations = %d, want 3", st.Invocations)
	}
	tx2.Abort()
	tx1.Abort()
}

// TestCascadeConcurrentStress drives the cascade from many goroutines
// with aborts and commits; the race detector plus the final-state
// consistency check validate the lock-free admission protocol.
func TestCascadeConcurrentStress(t *testing.T) {
	s := newCSet(t)
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
	if n := s.c.ActiveInvocations(); n != 0 {
		t.Errorf("window leaked %d invocations", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
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

// TestForwardScanFallback pins down the forward gatekeeper's full-scan
// fallback for unindexable pair conditions: verdicts stay exact and the
// FallbackScans counter attributes the work.
func TestForwardScanFallback(t *testing.T) {
	fw, err := NewForward(orderedSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	op := func(tx *engine.Tx, x int64) error {
		_, err := fw.Invoke(tx, fw.Method("op"), core.Args1(core.VInt(x)), func() Effect {
			return Effect{Ret: core.VBool(true)}
		})
		return err
	}
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := op(tx1, 5); err != nil {
		t.Fatal(err)
	}
	if err := op(tx2, 7); err != nil { // 5 < 7: commutes
		t.Fatalf("op(7) should commute: %v", err)
	}
	if err := op(tx2, 3); !engine.IsConflict(err) { // 5 < 3 fails
		t.Fatalf("op(3) should conflict, got %v", err)
	}
	st := fw.Telemetry().Snapshot()
	if st.FallbackScans < 2 {
		t.Errorf("FallbackScans = %d, want ≥ 2 (every ordered-spec check scans)", st.FallbackScans)
	}
	if st.Conflicts != 1 {
		t.Errorf("Conflicts = %d, want 1", st.Conflicts)
	}
}
