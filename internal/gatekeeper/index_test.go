package gatekeeper

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// rwSetSpec is a purely-disequality set specification (the figure 3
// read/write regime): every non-trivial pair commutes iff the keys
// differ, with no residual over return values.
func rwSetSpec() *core.Spec {
	ne := core.Ne(core.Arg1(0), core.Arg2(0))
	s := core.NewSpec(setSig())
	s.Set("add", "add", ne)
	s.Set("add", "remove", ne)
	s.Set("add", "contains", ne)
	s.Set("remove", "remove", ne)
	s.Set("remove", "contains", ne)
	s.Set("contains", "contains", core.True())
	return s
}

// plan and keySlots look the core's per-method tables up by name.
func (l *logged) plan(m1, m2 string) *pairPlan {
	return &l.plans[int(l.Method(m1).id)*len(l.methods)+int(l.Method(m2).id)]
}

func (l *logged) keySlots(m string) []*keySlot { return l.Method(m).slots }

func TestForwardIndexPlanShapes(t *testing.T) {
	s := newGSet(t)
	for _, tc := range []struct {
		m1, m2    string
		indexed   bool
		pureDiseq bool
	}{
		{"add", "add", true, false},      // Ne ∨ (r1=false ∧ r2=false): guarded residual
		{"add", "contains", true, false}, // Ne ∨ r1=false
		{"contains", "add", true, false}, // swapped: Ne ∨ r2=false
		{"remove", "remove", true, false},
	} {
		plan := s.g.plan(tc.m1, tc.m2)
		if plan.indexed != tc.indexed || plan.pureDiseq != tc.pureDiseq {
			t.Errorf("(%s,%s): indexed=%v pureDiseq=%v, want %v/%v",
				tc.m1, tc.m2, plan.indexed, plan.pureDiseq, tc.indexed, tc.pureDiseq)
		}
	}
	if plan := s.g.plan("contains", "contains"); !plan.trivial || plan.indexed {
		t.Errorf("contains~contains should be trivial and unindexed")
	}
	// One shared key slot per method: every guard is on argument 0.
	for _, m := range []string{"add", "remove", "contains"} {
		if n := len(s.g.keySlots(m)); n != 1 {
			t.Errorf("%s: %d key slots, want 1 (shared across pairs)", m, n)
		}
	}

	rw := newGSetCfg(t, rwSetSpec(), true)
	if plan := rw.g.plan("add", "add"); !plan.indexed || !plan.pureDiseq {
		t.Errorf("rw add~add should be indexed and pureDiseq: %+v", plan)
	}

	off := newGSetCfg(t, preciseSetSpec(), false)
	if plan := off.g.plan("add", "add"); plan.indexed {
		t.Errorf("an unindexed gatekeeper must leave plans unindexed")
	}
}

func TestForwardIndexMaintenance(t *testing.T) {
	s := newGSet(t)
	tx := engine.NewTx()
	for _, x := range []int64{1, 2, 3} {
		if _, err := s.invoke(tx, "add", x); err != nil {
			t.Fatal(err)
		}
	}
	slot := s.g.keySlots("add")[0]
	if len(slot.index) != 3 || len(slot.unkeyed) != 0 {
		t.Fatalf("index holds %d keys / %d unkeyed, want 3/0", len(slot.index), len(slot.unkeyed))
	}
	tx.Commit()
	if len(slot.index) != 0 || len(slot.unkeyed) != 0 {
		t.Fatalf("index not emptied on release: %d keys / %d unkeyed", len(slot.index), len(slot.unkeyed))
	}
	if n := s.g.ActiveInvocations(); n != 0 {
		t.Fatalf("%d active after commit", n)
	}
}

func TestForwardIndexDistinctKeysSkipChecker(t *testing.T) {
	s := newGSet(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	for i := int64(0); i < 50; i++ {
		if _, err := s.invoke(tx1, "add", i); err != nil {
			t.Fatal(err)
		}
	}
	before := s.g.Telemetry().Snapshot()
	if _, err := s.invoke(tx2, "add", 1000); err != nil {
		t.Fatal(err)
	}
	after := s.g.Telemetry().Snapshot()
	if d := after.Checks - before.Checks; d != 0 {
		t.Errorf("distinct-key probe ran %d checks, want 0", d)
	}
	if after.Probes == before.Probes {
		t.Errorf("no probes recorded")
	}
	if d := after.FallbackScans - before.FallbackScans; d != 0 {
		t.Errorf("distinct-key probe fell back to %d scans, want 0", d)
	}
}

func TestForwardPureDiseqImmediateConflict(t *testing.T) {
	s := newGSetCfg(t, rwSetSpec(), true)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if _, err := s.invoke(tx1, "add", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.invoke(tx2, "add", 5); !engine.IsConflict(err) {
		t.Fatalf("same-key adds must conflict under rw spec, got %v", err)
	}
	st := s.g.Telemetry().Snapshot()
	if st.Checks != 0 {
		t.Errorf("pure-disequality collision evaluated %d checkers, want 0", st.Checks)
	}
	if st.Collisions == 0 {
		t.Errorf("no collisions recorded")
	}
}

func TestForwardMixedIntFloatKeyCollision(t *testing.T) {
	// int64(5) and float64(5.0) are ValueEq-equal but not ==-equal: if
	// the index hashed them to different buckets the conflict below
	// would be missed (the map-canonicalization trap).
	for _, spec := range []*core.Spec{preciseSetSpec(), rwSetSpec()} {
		s := newGSetCfg(t, spec, true)
		tx1, tx2 := engine.NewTx(), engine.NewTx()
		if _, err := s.invoke(tx1, "add", 5); err != nil { // mutating: ret true
			t.Fatal(err)
		}
		if _, err := s.invokeV(tx2, "add", 5, core.VFloat(5.0)); !engine.IsConflict(err) {
			t.Fatalf("add(5.0) must conflict with active add(5), got %v", err)
		}
		tx1.Abort()
		tx2.Abort()
	}
}

func TestForwardNaNKeysStayConservative(t *testing.T) {
	// ValueEq(NaN, NaN) is false, so Ne(NaN, NaN) holds and two NaN
	// adds commute under the rw spec. The index files all NaNs in one
	// bucket (over-approximating collision) but must not treat the
	// collision as an immediate conflict.
	s := newGSetCfg(t, rwSetSpec(), true)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if _, err := s.g.Invoke(tx1, s.g.Method("add"), core.MakeVec(core.V(math.NaN())), func() Effect { return Effect{Ret: core.VBool(true)} }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.g.Invoke(tx2, s.g.Method("add"), core.MakeVec(core.V(math.NaN())), func() Effect { return Effect{Ret: core.VBool(true)} }); err != nil {
		t.Fatalf("NaN adds commute (NaN != NaN): %v", err)
	}
	st := s.g.Telemetry().Snapshot()
	if st.Collisions == 0 {
		t.Errorf("NaN probe should collide conservatively")
	}
	if st.Checks == 0 {
		t.Errorf("NaN collision must run the checker, not conflict immediately")
	}
}

func TestForwardUnkeyableValuesFallBack(t *testing.T) {
	type pt struct{ x, y int64 }
	s := newGSetCfg(t, rwSetSpec(), true)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	exec := func() Effect { return Effect{Ret: core.VBool(true)} }
	if _, err := s.g.Invoke(tx1, s.g.Method("add"), core.MakeVec(core.V(pt{1, 2})), exec); err != nil {
		t.Fatal(err)
	}
	// Distinct struct key: unkeyable probe falls back to the scan and
	// the checker admits it.
	if _, err := s.g.Invoke(tx2, s.g.Method("add"), core.MakeVec(core.V(pt{3, 4})), exec); err != nil {
		t.Fatalf("distinct struct keys commute: %v", err)
	}
	// Equal struct key: the scan fallback must still catch the
	// conflict.
	if _, err := s.g.Invoke(tx2, s.g.Method("add"), core.MakeVec(core.V(pt{1, 2})), exec); !engine.IsConflict(err) {
		t.Fatalf("equal struct keys must conflict, got %v", err)
	}
	if st := s.g.Telemetry().Snapshot(); st.FallbackScans == 0 {
		t.Errorf("unkeyable probes should count fallback scans")
	}
	// Huge integral floats are ValueEq-hazardous and must also take the
	// fallback, still reaching the right decision.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if _, err := s.g.Invoke(tx3, s.g.Method("add"), core.MakeVec(core.V(float64(1<<53))), exec); err != nil {
		t.Fatalf("2^53 float vs struct keys commute: %v", err)
	}
}

func TestForwardDisableIndexEquivalence(t *testing.T) {
	on := newGSet(t)
	off := newGSetCfg(t, preciseSetSpec(), false)
	r := rand.New(rand.NewSource(7))
	methods := []string{"add", "remove", "contains"}
	// A third of the keys are ints the index buckets; the others are the
	// two kinds it cannot key — ref values and integral floats from 2⁵³ —
	// so probes fall back to the scan and entries are filed unkeyed while
	// other transactions hold both sorts.
	type refKey struct{ k int64 }
	spell := func(x int64) core.Value {
		switch k := x % 6; x / 6 {
		case 1:
			return core.V(refKey{k})
		case 2:
			return core.VFloat(float64(1<<53 + 2*k))
		}
		return core.VInt(x)
	}
	const nTx = 3
	txOn, txOff := make([]*engine.Tx, nTx), make([]*engine.Tx, nTx)
	for i := range txOn {
		txOn[i], txOff[i] = engine.NewTx(), engine.NewTx()
	}
	for step := 0; step < 1200; step++ {
		i := r.Intn(nTx)
		if r.Intn(12) == 0 {
			txOn[i].Commit()
			txOff[i].Commit()
			txOn[i], txOff[i] = engine.NewTx(), engine.NewTx()
			continue
		}
		m := methods[r.Intn(len(methods))]
		x := int64(r.Intn(18))
		retOn, errOn := on.invokeV(txOn[i], m, x, spell(x))
		retOff, errOff := off.invokeV(txOff[i], m, x, spell(x))
		if (errOn == nil) != (errOff == nil) || retOn != retOff {
			t.Fatalf("step %d %s(%v): indexed (%v,%v) vs scan (%v,%v)", step, m, spell(x), retOn, errOn, retOff, errOff)
		}
	}
	for i := range txOn {
		txOn[i].Commit()
		txOff[i].Commit()
	}
	if on.key() != off.key() {
		t.Fatalf("final states diverge: %s vs %s", on.key(), off.key())
	}
	st := on.g.Telemetry().Snapshot()
	if st.Probes == 0 || st.FallbackScans == 0 || st.Collisions == 0 || st.Conflicts == 0 {
		t.Errorf("indexed run should probe, fall back on unkeyable probes, meet unkeyed entries and refuse: %+v", st)
	}
}

// --- general gatekeeper ---------------------------------------------------

func TestGeneralIndexPlanShapes(t *testing.T) {
	u := newGUF(t, 4)
	// union~union and union~find guard on rep@s1(v2.*) — first-state
	// functions of second-invocation values admit no side split, so the
	// general gatekeeper keeps the scan for them.
	if plan := u.g.plan("union", "union"); plan.indexed {
		t.Errorf("union~union must not be indexed")
	}
	if plan := u.g.plan("union", "find"); plan.indexed {
		t.Errorf("union~find must not be indexed")
	}
	if plan := u.g.plan("find", "find"); !plan.trivial {
		t.Errorf("find~find should be trivial")
	}

	// A value-only spec under the general gatekeeper indexes fully.
	g, err := NewGeneral(rwSetSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan := g.plan("add", "add"); !plan.indexed || !plan.pureDiseq {
		t.Errorf("general add~add should be indexed pure: %+v", plan)
	}
}

// genSet guards the gset state machine with a General gatekeeper so the
// same interpreted oracle can cross-check its decisions.
type genSet struct {
	g     *General
	elems map[int64]bool
}

func newGenSet(t *testing.T, indexed bool) *genSet {
	t.Helper()
	s := &genSet{elems: map[int64]bool{}}
	g, err := newGeneral(preciseSetSpec(), nil, indexed)
	if err != nil {
		t.Fatal(err)
	}
	s.g = g
	return s
}

func (s *genSet) invokeV(tx *engine.Tx, method string, x int64, arg core.Value) (bool, error) {
	ret, err := s.g.Invoke(tx, s.g.Method(method), core.MakeVec(core.V(arg)), func() Effect {
		switch method {
		case "add":
			if s.elems[x] {
				return Effect{Ret: core.VBool(false)}
			}
			s.elems[x] = true
			return Effect{Ret: core.VBool(true), Undo: func() { delete(s.elems, x) }, Redo: func() { s.elems[x] = true }}
		case "remove":
			if !s.elems[x] {
				return Effect{Ret: core.VBool(false)}
			}
			delete(s.elems, x)
			return Effect{Ret: core.VBool(true), Undo: func() { s.elems[x] = true }, Redo: func() { delete(s.elems, x) }}
		default:
			return Effect{Ret: core.VBool(s.elems[x])}
		}
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

func TestGeneralIndexedMatchesInterpretedOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := newGenSet(t, true)
		o := &oracleGK{spec: preciseSetSpec(), elems: map[int64]bool{}}
		const nTx = 4
		txs := make([]*engine.Tx, nTx)
		for i := range txs {
			txs[i] = engine.NewTx()
		}
		methods := []string{"add", "remove", "contains"}
		for step := 0; step < 400; step++ {
			i := r.Intn(nTx)
			if r.Intn(15) == 0 {
				txs[i].Commit()
				o.commit(i)
				txs[i] = engine.NewTx()
				continue
			}
			method := methods[r.Intn(len(methods))]
			x := int64(r.Intn(8))
			arg := core.VInt(x)
			if r.Intn(3) == 0 {
				arg = core.VFloat(float64(x)) // ValueEq-equal, not ==-equal
			}
			wantRet, wantOK := o.step(t, i, method, x, arg)
			ret, err := s.invokeV(txs[i], method, x, arg)
			if gotOK := err == nil; gotOK != wantOK {
				t.Fatalf("seed %d step %d: %s(%v) by tx%d: general ok=%v oracle ok=%v (err=%v)",
					seed, step, method, arg, i, gotOK, wantOK, err)
			}
			if err == nil && ret != wantRet.Bool() {
				t.Fatalf("seed %d step %d: %s(%v) returned %v, oracle %v", seed, step, method, arg, ret, wantRet)
			}
		}
		for i := range txs {
			txs[i].Commit()
			o.commit(i)
		}
		for x := int64(0); x < 8; x++ {
			if s.elems[x] != o.elems[x] {
				t.Fatalf("seed %d: state divergence at %d", seed, x)
			}
		}
		if st := s.g.Telemetry().Snapshot(); st.Probes == 0 {
			t.Fatalf("seed %d: index never probed", seed)
		}
	}
}

// BenchmarkIndexDisabled is the scan's half of the window sweeps in
// bench.Micros (ForwardIndexed/indexed, GeneralIndexed/set/indexed):
// one add and commit against `window` active adds on distinct keys with
// the index off, so every active entry is scanned and checked and the
// cost grows linearly in the window where the indexed rows stay flat.
func BenchmarkIndexDisabled(b *testing.B) {
	for _, w := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("ForwardIndexed/scan/window=%d", w), func(b *testing.B) {
			g, err := newForward(preciseSetSpec(), nil, false)
			if err != nil {
				b.Fatal(err)
			}
			scanWindow(b, w, g.Method("add"), g.Invoke)
		})
		b.Run(fmt.Sprintf("GeneralIndexed/set/scan/window=%d", w), func(b *testing.B) {
			g, err := newGeneral(preciseSetSpec(), nil, false)
			if err != nil {
				b.Fatal(err)
			}
			scanWindow(b, w, g.Method("add"), g.Invoke)
		})
	}
}

// scanWindow keeps adds of -1 … -n active in one transaction while each
// measured iteration adds a key far above them in a pooled transaction
// of its own — bench.Micros' window shape.
func scanWindow(b *testing.B, n int, add *Method, invoke func(*engine.Tx, *Method, core.Vec, func() Effect) (core.Value, error)) {
	added := func() Effect { return Effect{Ret: core.VBool(true)} }
	holder := engine.NewTx()
	defer holder.Commit()
	for i := 0; i < n; i++ {
		if _, err := invoke(holder, add, core.Args1(core.VInt(-int64(i+1))), added); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := engine.GetTx()
		if _, err := invoke(tx, add, core.Args1(core.VInt(1<<40|int64(i&8191))), added); err != nil {
			b.Error(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}
