package spectext

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"commlat/internal/adt/intset"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/apps"
	"commlat/internal/core"
)

const setSrc = `
# The set of figure 2 (precise specification).
adt set
method add(x) ret
method remove(x) ret
method contains(x) ret

add ~ add:           v1.x != v2.x || (r1 = false && r2 = false)
add ~ remove:        v1.x != v2.x || (r1 = false && r2 = false)
add ~ contains:      v1.x != v2.x || r1 = false
remove ~ remove:     v1.x != v2.x || (r1 = false && r2 = false)
remove ~ contains:   v1.x != v2.x || r1 = false
contains ~ contains: true
`

func TestParseSetMatchesFigure2(t *testing.T) {
	spec, err := Parse(setSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := intset.PreciseSpec()
	for _, p := range want.OrderedPairs() {
		if !core.CondEqual(spec.Cond(p[0], p[1]), want.Cond(p[0], p[1])) {
			t.Errorf("(%s,%s): parsed %s, want %s", p[0], p[1],
				spec.Cond(p[0], p[1]), want.Cond(p[0], p[1]))
		}
	}
	if spec.Classify() != core.ClassOnline {
		t.Errorf("class = %v", spec.Classify())
	}
}

const ufSrc = `
adt unionfind
method union(a, b)
method find(a) ret
method create(c) ret
pure rank

union ~ union:  rep@s1(v2.a) != loser@s1(v1.a, v1.b) && rep@s1(v2.b) != loser@s1(v1.a, v1.b)
union ~ find:   rep@s1(v2.a) != loser@s1(v1.a, v1.b)
find ~ find:    true
union ~ create: false
find ~ create:  false
create ~ create: false
`

func TestParseUnionFindMatchesFigure5(t *testing.T) {
	spec, err := Parse(ufSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := unionfind.Spec()
	for _, p := range want.OrderedPairs() {
		if !core.CondEqual(spec.Cond(p[0], p[1]), want.Cond(p[0], p[1])) {
			t.Errorf("(%s,%s): parsed %s, want %s", p[0], p[1],
				spec.Cond(p[0], p[1]), want.Cond(p[0], p[1]))
		}
	}
	if spec.Classify() != core.ClassGeneral {
		t.Errorf("class = %v", spec.Classify())
	}
}

func TestParseArithmeticAndOrdering(t *testing.T) {
	src := `
adt acc
method bump(x) ret
bump ~ bump: v1.x + 1 < v2.x * 2 || r1 >= r2
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := spec.Cond("bump", "bump")
	ok, err := core.Eval(c, &core.PairEnv{
		Inv1: core.NewInvocation("bump", []core.Value{core.V(int64(3))}, core.VInt(int64(1))),
		Inv2: core.NewInvocation("bump", []core.Value{core.V(int64(5))}, core.VInt(int64(2))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("3+1 < 5*2 should hold")
	}
}

// TestRoundTripAllRepoSpecs: Format then Parse must reproduce every
// shipped specification (up to simplification).
func TestRoundTripAllRepoSpecs(t *testing.T) {
	for _, p := range apps.Specs() {
		want := p.Spec()
		name := p.ADT + "/" + p.Name
		text := Format(want)
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", name, err, text)
		}
		for _, p := range want.OrderedPairs() {
			if !core.CondEqual(got.Cond(p[0], p[1]), want.Cond(p[0], p[1])) {
				t.Errorf("%s (%s,%s): round trip %s, want %s",
					name, p[0], p[1], got.Cond(p[0], p[1]), want.Cond(p[0], p[1]))
			}
		}
		if got.Classify() != want.Classify() {
			t.Errorf("%s: class %v, want %v", name, got.Classify(), want.Classify())
		}
		if !reflect.DeepEqual(got.OrientedPairs(), want.OrientedPairs()) {
			t.Errorf("%s: oriented pairs %v, want %v", name, got.OrientedPairs(), want.OrientedPairs())
		}
	}
}

func TestFormatEmitsDirectedOverride(t *testing.T) {
	// kd-tree has the directed remove~nearest override; Format must emit
	// both direction lines.
	text := Format(kdtree.Spec())
	if !strings.Contains(text, "nearest ~ remove:") || !strings.Contains(text, "remove ~ nearest:") {
		t.Errorf("directed override not emitted:\n%s", text)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing adt":     "method m(x)\nm ~ m: true",
		"unknown method":  "adt a\nmethod m(x)\nm ~ q: true",
		"unknown param":   "adt a\nmethod m(x) ret\nm ~ m: v1.y != v2.x",
		"term as cond":    "adt a\nmethod m(x)\nm ~ m: v1.x",
		"cond as term":    "adt a\nmethod m(x)\nm ~ m: (v1.x != v2.x) + 1 = 2",
		"bad state":       "adt a\nmethod m(x)\nm ~ m: f@s3(v1.x) = 1",
		"trailing":        "adt a\nmethod m(x)\nm ~ m: true true",
		"bad char":        "adt a\nmethod m(x)\nm ~ m: v1.x ?? v2.x",
		"duplicate adt":   "adt a\nadt b",
		"stray ident":     "adt a\nmethod m(x)\nm ~ m: banana",
		"bad method line": "adt a\nmethod m x",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
# leading comment
adt a

method m(x) ret   # trailing comment? no: comments start the token
m ~ m: v1.x != v2.x
`
	// '#' begins a comment anywhere in a line.
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !core.CondEqual(spec.Cond("m", "m"), core.Ne(core.Arg1(0), core.Arg2(0))) {
		t.Errorf("cond = %s", spec.Cond("m", "m"))
	}
}

func TestParsedSpecSynthesizes(t *testing.T) {
	src := `
adt reg
method put(k) ret
method get(k) ret
put ~ put: v1.k != v2.k
put ~ get: v1.k != v2.k
get ~ get: true
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Classify() != core.ClassSimple {
		t.Fatalf("class = %v", spec.Classify())
	}
}

// TestFuzzRoundTrip formats random specifications (random SIMPLE-ish
// shapes plus state-function conditions) and reparses them; the result
// must be condition-equal.
func TestFuzzRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 200; trial++ {
		sig := &core.ADTSig{Name: "fuzz"}
		nm := 2 + r.Intn(2)
		for i := 0; i < nm; i++ {
			ms := core.MethodSig{Name: fmt.Sprintf("m%d", i), HasRet: r.Intn(2) == 0}
			for p := 0; p < 1+r.Intn(2); p++ {
				ms.Params = append(ms.Params, fmt.Sprintf("p%d", p))
			}
			sig.Methods = append(sig.Methods, ms)
		}
		spec := core.NewSpec(sig)
		spec.DeclarePure("dist")
		term := func(ms core.MethodSig, side core.Side) core.Term {
			opts := []core.Term{}
			for i := range ms.Params {
				opts = append(opts, core.ArgTerm{Side: side, Index: i})
			}
			if ms.HasRet {
				opts = append(opts, core.RetTerm{Side: side})
			}
			opts = append(opts, core.Lit(int64(r.Intn(3))))
			return opts[r.Intn(len(opts))]
		}
		var leaf func(m1, m2 core.MethodSig) core.Cond
		leaf = func(m1, m2 core.MethodSig) core.Cond {
			switch r.Intn(5) {
			case 0:
				return core.Ne(term(m1, core.First), term(m2, core.Second))
			case 1:
				return core.Eq(term(m1, core.First), core.Lit(false))
			case 2:
				return core.Gt(core.Fn2("dist", term(m1, core.First), term(m2, core.Second)), core.Lit(int64(r.Intn(5))))
			case 3:
				return core.Lt(core.Add(term(m1, core.First), core.Lit(int64(1))), term(m2, core.Second))
			default:
				return core.Eq(core.Fn1("rep", term(m1, core.First)), term(m2, core.Second))
			}
		}
		for i, m1 := range sig.Methods {
			for _, m2 := range sig.Methods[i:] {
				var c core.Cond
				switch r.Intn(4) {
				case 0:
					c = core.True()
				case 1:
					c = core.False()
				case 2:
					c = leaf(m1, m2)
				default:
					c = core.Or(leaf(m1, m2), core.And(leaf(m1, m2), leaf(m1, m2)))
				}
				spec.Set(m1.Name, m2.Name, c)
			}
		}
		text := Format(spec)
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("trial %d: reparse failed: %v\n%s", trial, err, text)
		}
		for _, p := range spec.OrderedPairs() {
			if !core.CondEqual(got.Cond(p[0], p[1]), spec.Cond(p[0], p[1])) {
				t.Fatalf("trial %d (%s,%s): %s != %s\n%s", trial, p[0], p[1],
					got.Cond(p[0], p[1]), spec.Cond(p[0], p[1]), text)
			}
		}
	}
}

// TestDuplicateMethodRejected: a method declared twice is refused at its
// second declaration, with that line's number. Format would print each
// of its pair lines twice, which Parse refuses: accepting it breaks the
// round trip FuzzParseSpec checks.
func TestDuplicateMethodRejected(t *testing.T) {
	_, err := Parse("adt A\nmethod t(A00)#00\nmethod t(A)")
	if err == nil || !strings.Contains(err.Error(), `line 3: duplicate method "t"`) {
		t.Fatalf("Parse = %v, want a line-3 duplicate-method error", err)
	}
}

func TestDuplicatePairRejected(t *testing.T) {
	src := `adt a
method m(x)
method n(x)

m ~ n: true
n ~ n: true
m ~ n: false
`
	_, err := Parse(src)
	if err == nil {
		t.Fatal("expected duplicate-pair error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 7") || !strings.Contains(msg, "duplicate condition for m ~ n") ||
		!strings.Contains(msg, "first defined at line 5") {
		t.Errorf("duplicate error should carry both positions, got: %v", err)
	}

	// The mirror-direction pair is a distinct ordered pair, not a
	// duplicate: a directed override stores both directions.
	ok := `adt a
method m(x)
method n(x)

m ~ n: v1.x < v2.x
n ~ m: v2.x < v1.x
n ~ n: true
m ~ m: true
`
	if _, err := Parse(ok); err != nil {
		t.Fatalf("directed override misread as duplicate: %v", err)
	}
}

func TestOrientedRoundTrip(t *testing.T) {
	src := `adt uf
method union(a, b)
method find(a) ret

oriented union ~ union

union ~ union: rep@s1(v2.a) != v1.a
union ~ find:  true
find ~ find:   true
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !spec.IsOriented("union", "union") {
		t.Fatal("oriented declaration not recorded")
	}
	if spec.IsOriented("union", "find") {
		t.Fatal("orientation leaked to an undeclared pair")
	}

	text := Format(spec)
	if !strings.Contains(text, "oriented union ~ union") {
		t.Fatalf("Format dropped the oriented line:\n%s", text)
	}
	again, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !again.IsOriented("union", "union") {
		t.Fatal("orientation lost in round trip")
	}
}

func TestOrientedErrors(t *testing.T) {
	cases := map[string]string{
		"unknown method": "adt a\nmethod m(x)\noriented m ~ q\nm ~ m: true",
		"bad usage":      "adt a\nmethod m(x)\noriented m m\nm ~ m: true",
		"missing rhs":    "adt a\nmethod m(x)\noriented m ~\nm ~ m: true",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}
