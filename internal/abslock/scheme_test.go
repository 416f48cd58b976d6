package abslock

import (
	"math/rand"
	"strings"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// accumSig and accumSpec reproduce figure 7: increment commutes with
// increment, read with read, and increment never commutes with read.
func accumSig() *core.ADTSig {
	return &core.ADTSig{Name: "accumulator", Methods: []core.MethodSig{
		{Name: "inc", Params: []string{"x"}},
		{Name: "read", HasRet: true},
	}}
}

func accumSpec() *core.Spec {
	s := core.NewSpec(accumSig())
	s.Set("inc", "inc", core.True())
	s.Set("inc", "read", core.False())
	s.Set("read", "read", core.True())
	return s
}

func setSig() *core.ADTSig {
	return &core.ADTSig{Name: "set", Methods: []core.MethodSig{
		{Name: "add", Params: []string{"x"}, HasRet: true},
		{Name: "remove", Params: []string{"x"}, HasRet: true},
		{Name: "contains", Params: []string{"x"}, HasRet: true},
	}}
}

// rwSetSpec is figure 3: operations commute when their arguments differ,
// contains always commutes with contains.
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

// exclusiveSetSpec strengthens figure 3 further: contains conflicts with
// contains on the same element (§4.1's cheaper exclusive-lock point).
func exclusiveSetSpec() *core.Spec {
	s := rwSetSpec()
	s.Set("contains", "contains", core.Ne(core.Arg1(0), core.Arg2(0)))
	return s
}

func TestSynthesizeAccumulatorFullMatrix(t *testing.T) {
	s, err := Synthesize(accumSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Figure 8(a): modes inc:ds, inc:x, read:ds, read:ret.
	want := []string{"inc:ds", "inc:x", "read:ds", "read:ret"}
	got := s.ModeNames()
	if len(got) != len(want) {
		t.Fatalf("modes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("modes = %v, want %v", got, want)
		}
	}
	// Only inc:ds × read:ds is incompatible.
	incDS, readDS := s.ModeIndex("inc:ds"), s.ModeIndex("read:ds")
	for i := range s.Modes {
		for j := range s.Modes {
			wantIncompat := (i == incDS && j == readDS) || (i == readDS && j == incDS)
			if s.Incompat[i][j] != wantIncompat {
				t.Errorf("Incompat[%s][%s] = %v, want %v", s.Modes[i], s.Modes[j], s.Incompat[i][j], wantIncompat)
			}
		}
	}
}

func TestReduceAccumulator(t *testing.T) {
	full, err := Synthesize(accumSpec())
	if err != nil {
		t.Fatal(err)
	}
	r := full.Reduce()
	// Figure 8(b): only inc:ds and read:ds survive.
	want := []string{"inc:ds", "read:ds"}
	got := r.ModeNames()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("reduced modes = %v, want %v", got, want)
	}
	if !r.Incompat[r.ModeIndex("inc:ds")][r.ModeIndex("read:ds")] {
		t.Error("reduced matrix lost inc:ds × read:ds incompatibility")
	}
	// Acquisitions shrink accordingly: inc acquires only ds.
	if len(r.Acquire["inc"]) != 1 || r.Acquire["inc"][0].Target != TargetDS {
		t.Errorf("reduced inc acquisitions = %+v", r.Acquire["inc"])
	}
	if len(r.Acquire["read"]) != 1 {
		t.Errorf("reduced read acquisitions = %+v", r.Acquire["read"])
	}
}

// TestReduceKeepsEmptyMethods: a method whose modes all reduce away
// keeps an empty entry, so it still has a handle, and an invocation
// through that handle takes no lock and is admitted under a live inc.
func TestReduceKeepsEmptyMethods(t *testing.T) {
	spec := core.NewSpec(&core.ADTSig{Name: "accumulator", Methods: []core.MethodSig{
		{Name: "inc", Params: []string{"x"}},
		{Name: "read", HasRet: true},
		{Name: "capacity", HasRet: true},
	}})
	spec.Set("inc", "inc", core.True())
	spec.Set("inc", "read", core.False())
	spec.Set("read", "read", core.True())
	for _, m := range []string{"inc", "read", "capacity"} {
		spec.Set("capacity", m, core.True())
	}
	full, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := full.Reduce()
	if acqs, ok := r.Acquire["capacity"]; !ok || len(acqs) != 0 {
		t.Fatalf("reduced capacity acquisitions = %+v (present %v), want an empty entry", acqs, ok)
	}
	m := NewManager(r, nil)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := m.Acquire(tx1, m.Method("inc"), core.VInt(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Invoke(tx2, m.Method("capacity"), core.Vec{}, func() core.Value { return core.VInt(8) }); err != nil {
		t.Fatalf("capacity under a live inc: %v, want no conflict", err)
	}
	if got := m.HeldLocks(); got != 0 {
		t.Errorf("HeldLocks = %d, want 0 (only inc's ds-lock is held)", got)
	}
}

func TestSynthesizeSetRW(t *testing.T) {
	s, err := Synthesize(rwSetSpec())
	if err != nil {
		t.Fatal(err)
	}
	r := s.Reduce()
	// All three methods lock their argument; contains:x is compatible
	// with itself (read lock) but conflicts with add:x and remove:x.
	addX, remX, conX := r.ModeIndex("add:x"), r.ModeIndex("remove:x"), r.ModeIndex("contains:x")
	if addX < 0 || remX < 0 || conX < 0 {
		t.Fatalf("missing argument modes: %v", r.ModeNames())
	}
	if !r.Incompat[addX][addX] || !r.Incompat[addX][remX] || !r.Incompat[addX][conX] {
		t.Error("add:x should conflict with add:x, remove:x, contains:x")
	}
	if r.Incompat[conX][conX] {
		t.Error("contains:x should be self-compatible (read lock)")
	}
	// ds modes are all superfluous here and reduced away.
	if r.ModeIndex("add:ds") >= 0 {
		t.Error("ds modes should have been reduced away")
	}
}

func TestSynthesizeRejectsNonSimple(t *testing.T) {
	s := core.NewSpec(setSig())
	s.Set("add", "add", core.Or(core.Ne(core.Arg1(0), core.Arg2(0)),
		core.And(core.Eq(core.Ret1(), core.Lit(false)), core.Eq(core.Ret2(), core.Lit(false)))))
	if _, err := Synthesize(s); err == nil {
		t.Error("precise set spec is not SIMPLE; Synthesize must refuse (Theorem 1)")
	}
}

func TestSynthesizeBottomIsGlobalLock(t *testing.T) {
	s, err := Synthesize(core.Bottom(setSig()))
	if err != nil {
		t.Fatal(err)
	}
	r := s.Reduce()
	// Every surviving mode is a ds mode and all pairs are incompatible:
	// one global exclusive lock (§4.1).
	for _, m := range r.Modes {
		if m.Slot != "ds" {
			t.Errorf("bottom scheme kept non-ds mode %s", m)
		}
	}
	for i := range r.Modes {
		for j := range r.Modes {
			if !r.Incompat[i][j] {
				t.Errorf("bottom scheme: %s compatible with %s", r.Modes[i], r.Modes[j])
			}
		}
	}
}

func TestSynthesizePartitioned(t *testing.T) {
	part, err := rwSetSpec().PartitionSpec("part")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Synthesize(part)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Reduce()
	if r.ModeIndex("add:x@part") < 0 {
		t.Fatalf("expected keyed mode add:x@part, have %v", r.ModeNames())
	}
	for _, a := range r.Acquire["add"] {
		if a.Key != "part" {
			t.Errorf("partitioned acquisition should use key, got %+v", a)
		}
	}
}

// schemeAllows simulates two transactions invoking inv1 then inv2 under
// the scheme and reports whether the second proceeds without conflict.
func schemeAllows(t *testing.T, s *Scheme, keys map[string]KeyFunc, inv1, inv2 core.Invocation) bool {
	t.Helper()
	m := NewManager(s, keys)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := pre(m, tx1, inv1.Method, inv1.Args); err != nil {
		t.Fatalf("tx1 pre-acquire conflicted with empty table: %v", err)
	}
	if err := m.AcquirePost(tx1, m.Method(inv1.Method), inv1.Ret, inv1.Args.Slice()...); err != nil {
		t.Fatalf("tx1 post-acquire conflicted: %v", err)
	}
	if err := pre(m, tx2, inv2.Method, inv2.Args); err != nil {
		if !engine.IsConflict(err) {
			t.Fatal(err)
		}
		return false
	}
	if err := m.AcquirePost(tx2, m.Method(inv2.Method), inv2.Ret, inv2.Args.Slice()...); err != nil {
		if !engine.IsConflict(err) {
			t.Fatal(err)
		}
		return false
	}
	return true
}

// TestTheorem1SoundAndComplete exercises the heart of Theorem 1: for
// SIMPLE specifications, the synthesized scheme (full and reduced) allows
// two invocations to proceed concurrently exactly when the specification
// says they commute.
func TestTheorem1SoundAndComplete(t *testing.T) {
	partKeys := map[string]KeyFunc{"part": func(v core.Value) core.Value { return core.VInt(v.Int() % 2) }}
	pureEnv := func(fn string, args []core.Value) (core.Value, error) {
		return core.VInt(args[0].Int() % 2), nil
	}
	partSpec, err := rwSetSpec().PartitionSpec("part")
	if err != nil {
		t.Fatal(err)
	}
	specs := []struct {
		name string
		spec *core.Spec
		keys map[string]KeyFunc
	}{
		{"rw", rwSetSpec(), nil},
		{"exclusive", exclusiveSetSpec(), nil},
		{"bottom", core.Bottom(setSig()), nil},
		{"partition", partSpec, partKeys},
	}
	methods := []string{"add", "remove", "contains"}
	rets := []core.Value{core.V(true), core.V(false)}
	for _, tc := range specs {
		full, err := Synthesize(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, scheme := range []*Scheme{full, full.Reduce()} {
			for _, m1 := range methods {
				for _, m2 := range methods {
					for v1 := int64(0); v1 < 3; v1++ {
						for v2 := int64(0); v2 < 3; v2++ {
							for _, r1 := range rets {
								for _, r2 := range rets {
									inv1 := core.NewInvocation(m1, []core.Value{core.V(v1)}, r1)
									inv2 := core.NewInvocation(m2, []core.Value{core.V(v2)}, r2)
									env := &core.PairEnv{Inv1: inv1, Inv2: inv2, S1: pureEnv, S2: pureEnv}
									want, err := core.Eval(tc.spec.Cond(m1, m2), env)
									if err != nil {
										t.Fatal(err)
									}
									got := schemeAllows(t, scheme, tc.keys, inv1, inv2)
									if got != want {
										t.Fatalf("%s: scheme allows(%v,%v)=%v but spec says %v",
											tc.name, inv1, inv2, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestTheorem1Accumulator(t *testing.T) {
	spec := accumSpec()
	full, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for _, scheme := range []*Scheme{full, full.Reduce()} {
		for trial := 0; trial < 200; trial++ {
			pick := func() core.Invocation {
				if r.Intn(2) == 0 {
					return core.NewInvocation("inc", []core.Value{core.V(int64(r.Intn(3)))}, core.Value{})
				}
				return core.NewInvocation("read", nil, core.VInt(int64(r.Intn(3))))
			}
			inv1, inv2 := pick(), pick()
			want, err := core.Eval(spec.Cond(inv1.Method, inv2.Method), &core.PairEnv{Inv1: inv1, Inv2: inv2})
			if err != nil {
				t.Fatal(err)
			}
			if got := schemeAllows(t, scheme, nil, inv1, inv2); got != want {
				t.Fatalf("allows(%v,%v)=%v, spec says %v", inv1, inv2, got, want)
			}
		}
	}
}

func TestMatrixString(t *testing.T) {
	s, err := Synthesize(accumSpec())
	if err != nil {
		t.Fatal(err)
	}
	out := s.MatrixString()
	if !strings.Contains(out, "inc:ds") || !strings.Contains(out, "x") || !strings.Contains(out, "v") {
		t.Errorf("unexpected matrix rendering:\n%s", out)
	}
}

func TestModeString(t *testing.T) {
	if (Mode{Method: "add", Slot: "x"}).String() != "add:x" {
		t.Error("mode naming")
	}
	if (Mode{Method: "add", Slot: "x", Key: "part"}).String() != "add:x@part" {
		t.Error("keyed mode naming")
	}
}
