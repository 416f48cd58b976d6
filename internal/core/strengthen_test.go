package core

import "testing"

// TestStrengthenDerivesFigure3 is the paper's own example: strengthening
// the precise set specification (figure 2) must yield exactly the SIMPLE
// specification of figure 3.
func TestStrengthenDerivesFigure3(t *testing.T) {
	precise := preciseSetSpec()
	fig3 := rwSetSpec()
	got := StrengthenToSimple(precise)
	for _, p := range precise.OrderedPairs() {
		if !CondEqual(got.Cond(p[0], p[1]), fig3.Cond(p[0], p[1])) {
			t.Errorf("(%s,%s): strengthened to %s, figure 3 has %s",
				p[0], p[1], got.Cond(p[0], p[1]), fig3.Cond(p[0], p[1]))
		}
	}
	if got.Classify() != ClassSimple {
		t.Errorf("result class = %v", got.Classify())
	}
}

func TestStrengthenIsBelow(t *testing.T) {
	precise := preciseSetSpec()
	got := StrengthenToSimple(precise)
	if !got.LE(precise) {
		t.Error("strengthened spec must be ≤ the original")
	}
	if precise.LE(got) {
		t.Error("strengthening the precise set spec must be strict")
	}
}

func TestStrengthenPreservesSimple(t *testing.T) {
	fig3 := rwSetSpec()
	got := StrengthenToSimple(fig3)
	for _, p := range fig3.OrderedPairs() {
		if !CondEqual(got.Cond(p[0], p[1]), fig3.Cond(p[0], p[1])) {
			t.Errorf("(%s,%s): already-SIMPLE condition changed to %s",
				p[0], p[1], got.Cond(p[0], p[1]))
		}
	}
}

// TestStrengthenStateFulFallsToFalse: conditions built on state
// functions (kd-tree's nearest~add, union-find's union~union) have no
// useful SIMPLE under-approximation, matching the paper's remark that no
// straightforward SIMPLE kd-tree specification exists.
func TestStrengthenStateFulFallsToFalse(t *testing.T) {
	sig := &ADTSig{Name: "kd", Methods: []MethodSig{
		{Name: "nearest", Params: []string{"a"}, HasRet: true},
		{Name: "add", Params: []string{"a"}, HasRet: true},
	}}
	s := NewSpec(sig)
	s.DeclarePure("dist")
	s.Set("nearest", "nearest", True())
	s.Set("nearest", "add", Or(
		Eq(Ret2(), Lit(false)),
		Gt(Fn2("dist", Arg1(0), Arg2(0)), Fn1("dist", Arg1(0), Ret1())),
	))
	s.Set("add", "add", Or(Ne(Arg1(0), Arg2(0)),
		And(Eq(Ret1(), Lit(false)), Eq(Ret2(), Lit(false)))))
	got := StrengthenToSimple(s)
	if _, ok := got.Cond("nearest", "add").(FalseCond); !ok {
		t.Errorf("nearest~add strengthened to %s, want false", got.Cond("nearest", "add"))
	}
	if _, ok := got.Cond("nearest", "nearest").(TrueCond); !ok {
		t.Error("nearest~nearest should stay true")
	}
	if !CondEqual(got.Cond("add", "add"), Ne(Arg1(0), Arg2(0))) {
		t.Errorf("add~add strengthened to %s", got.Cond("add", "add"))
	}
}

// TestStrengthenSoundOnModel: the strengthened spec must still be sound
// per Definition 1 (it is ≤ the original, and the original is sound).
func TestStrengthenSoundOnModel(t *testing.T) {
	got := StrengthenToSimple(preciseSetSpec())
	bad, err := CheckCondSound(got, setStates(), setCalls())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bad {
		t.Errorf("violation: %s", v)
	}
}

func TestStrengthenMultiArgConjunction(t *testing.T) {
	// A two-argument method: every implying disequality joins the
	// conjunction.
	sig := &ADTSig{Name: "g", Methods: []MethodSig{
		{Name: "link", Params: []string{"u", "v"}},
		{Name: "touch", Params: []string{"u"}},
	}}
	s := NewSpec(sig)
	disjoint := And(Ne(Arg1(0), Arg2(0)), Ne(Arg1(1), Arg2(0)))
	// Weaken it with a disjunction so it is no longer SIMPLE.
	s.Set("link", "touch", Or(disjoint, And(Eq(Arg1(0), Lit(0)), Eq(Arg2(0), Lit(0)))))
	s.Set("link", "link", False())
	s.Set("touch", "touch", True())
	got := StrengthenToSimple(s)
	// Neither single disequality implies the original (both are needed
	// together), so the greedy conjunction pass must recover exactly the
	// two-literal disjoint condition.
	c := got.Cond("link", "touch")
	if !CondEqual(c, disjoint) {
		t.Errorf("strengthened to %s, want %s", c, disjoint)
	}
	if !Implies(c, s.Cond("link", "touch")) {
		t.Errorf("strengthened %s does not imply original", c)
	}
}

// TestExclusive: the exclusive move rewrites exactly the pairs that are
// true — to the disequality of every argument pair, or to false when a
// method takes none — and lands at or below its input.
func TestExclusive(t *testing.T) {
	rw := rwSetSpec()
	ex := Exclusive(rw)
	for _, p := range rw.OrderedPairs() {
		want := rw.Cond(p[0], p[1])
		if p[0] == "contains" && p[1] == "contains" {
			want = Ne(Arg1(0), Arg2(0))
		}
		if !CondEqual(ex.Cond(p[0], p[1]), want) {
			t.Errorf("(%s,%s) = %s, want %s", p[0], p[1], ex.Cond(p[0], p[1]), want)
		}
	}
	if !ex.LE(rw) || rw.LE(ex) {
		t.Error("exclusive must be strictly below rw")
	}
	if _, ok := rw.Cond("contains", "contains").(TrueCond); !ok {
		t.Error("Exclusive changed its input")
	}

	acc := NewSpec(&ADTSig{Name: "acc", Methods: []MethodSig{
		{Name: "inc", Params: []string{"x", "y"}}, {Name: "read", HasRet: true},
	}})
	acc.Set("inc", "inc", True()).Set("read", "read", True())
	got := Exclusive(acc)
	if want := And(Ne(Arg1(0), Arg2(0)), Ne(Arg1(0), Arg2(1)), Ne(Arg1(1), Arg2(0)), Ne(Arg1(1), Arg2(1))); !CondEqual(got.Cond("inc", "inc"), want) {
		t.Errorf("inc~inc = %s, want %s", got.Cond("inc", "inc"), want)
	}
	if _, ok := got.Cond("read", "read").(FalseCond); !ok {
		t.Errorf("read~read = %s, want false: read takes no argument", got.Cond("read", "read"))
	}
}

// TestReadWrite: read/write locking on the set's element is figure 3.
func TestReadWrite(t *testing.T) {
	got, fig3 := ReadWrite(setSig(), "contains"), rwSetSpec()
	for _, p := range fig3.OrderedPairs() {
		if !CondEqual(got.Cond(p[0], p[1]), fig3.Cond(p[0], p[1])) {
			t.Errorf("(%s,%s) = %s, figure 3 has %s", p[0], p[1], got.Cond(p[0], p[1]), fig3.Cond(p[0], p[1]))
		}
	}
}
