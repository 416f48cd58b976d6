package core

import (
	"math"
	"testing"
)

func TestNormIntegers(t *testing.T) {
	cases := []any{int(7), int8(7), int16(7), int32(7), int64(7), uint(7), uint8(7), uint16(7), uint32(7), uint64(7)}
	for _, c := range cases {
		if got := V(c); got != VInt(7) {
			t.Errorf("V(%T %v) = %v, want int 7", c, c, got)
		}
	}
}

func TestNormFloats(t *testing.T) {
	if got := V(float32(1.5)); got != VFloat(1.5) {
		t.Errorf("V(float32 1.5) = %v", got)
	}
	if got := V(2.25); got != VFloat(2.25) {
		t.Errorf("V(float64) changed value: %v", got)
	}
}

func TestNormPassthrough(t *testing.T) {
	if got := V("abc"); got != VString("abc") {
		t.Errorf("V(string) = %v", got)
	}
	if got := V(true); got != VBool(true) {
		t.Errorf("V(bool) = %v", got)
	}
	if got := V(nil); !got.IsNil() {
		t.Errorf("V(nil) = %v", got)
	}
	if got := V(VInt(3)); got != VInt(3) {
		t.Errorf("V(Value) must pass through: %v", got)
	}
}

func TestTaggedAccessors(t *testing.T) {
	if VInt(-9).Int() != -9 {
		t.Error("Int round trip")
	}
	if VFloat(1.25).Float() != 1.25 {
		t.Error("Float round trip")
	}
	if !VBool(true).Bool() || VBool(false).Bool() {
		t.Error("Bool round trip")
	}
	if VString("xy").Str() != "xy" {
		t.Error("Str round trip")
	}
	type node struct{ id int }
	n := node{7}
	if V(n).Ref().(node) != n {
		t.Error("Ref round trip")
	}
	if _, ok := VInt(1).AsBool(); ok {
		t.Error("AsBool on int must fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("Int() on a bool must panic like a failed type assertion")
		}
	}()
	VBool(true).Int()
}

func TestUnbox(t *testing.T) {
	cases := []struct {
		v    Value
		want any
	}{
		{Nil(), nil},
		{VBool(true), true},
		{VInt(5), int64(5)},
		{VFloat(2.5), 2.5},
		{VString("s"), "s"},
	}
	for _, c := range cases {
		if got := c.v.Unbox(); got != c.want {
			t.Errorf("Unbox(%v) = %v (%T), want %v", c.v, got, got, c.want)
		}
	}
}

func TestValueEq(t *testing.T) {
	cases := []struct {
		a, b any
		want bool
	}{
		{1, 1, true},
		{1, 2, false},
		{int8(3), uint64(3), true},
		{1, 1.0, true},
		{1.5, 1.5, true},
		{1.5, 1, false},
		{"a", "a", true},
		{"a", "b", false},
		{true, true, true},
		{true, false, false},
		{nil, nil, true},
		{nil, 0, false},
		{"1", 1, false},
		{math.NaN(), math.NaN(), false},
		{0.0, math.Copysign(0, -1), true},
	}
	for _, c := range cases {
		if got := ValueEq(V(c.a), V(c.b)); got != c.want {
			t.Errorf("ValueEq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if ValueEq(Unset(), Unset()) {
		t.Error("unset sentinel must be unequal to itself")
	}
}

func TestValueLess(t *testing.T) {
	lt, err := valueLess(VInt(1), VFloat(2.5))
	if err != nil || !lt {
		t.Errorf("valueLess(1, 2.5) = %v, %v", lt, err)
	}
	lt, err = valueLess(VInt(3), VInt(3))
	if err != nil || lt {
		t.Errorf("valueLess(3, 3) = %v, %v", lt, err)
	}
	if _, err = valueLess(VString("a"), VInt(1)); err == nil {
		t.Error("valueLess on string should error")
	}
}

func TestCompare(t *testing.T) {
	if c, err := Compare(VInt(1), VFloat(1.0)); err != nil || c != 0 {
		t.Errorf("Compare(1, 1.0) = %d, %v", c, err)
	}
	if c, _ := Compare(VFloat(-1), VInt(3)); c != -1 {
		t.Errorf("Compare(-1, 3) = %d", c)
	}
	if c, _ := Compare(VInt(3), VFloat(-1)); c != 1 {
		t.Errorf("Compare(3, -1) = %d", c)
	}
	// NaN is unordered: Compare reports 0 but ValueEq is false, matching
	// IEEE semantics where <, > and = are all false.
	if c, err := Compare(VFloat(math.NaN()), VInt(1)); err != nil || c != 0 {
		t.Errorf("Compare(NaN, 1) = %d, %v", c, err)
	}
	if _, err := Compare(VBool(true), VInt(1)); err == nil {
		t.Error("Compare on bool should error")
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   ArithOp
		a, b any
		want any
	}{
		{OpAdd, 2, 3, int64(5)},
		{OpSub, 2, 3, int64(-1)},
		{OpMul, 2, 3, int64(6)},
		{OpAdd, 2.5, 3, 5.5},
		{OpDiv, 7, 2, 3.5},
		{OpMul, 2.0, 3.0, 6.0},
	}
	for _, c := range cases {
		got, err := arith(c.op, V(c.a), V(c.b))
		if err != nil {
			t.Fatalf("arith(%v, %v, %v): %v", c.op, c.a, c.b, err)
		}
		if !ValueEq(got, V(c.want)) {
			t.Errorf("arith(%v, %v, %v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
	// Integer ops stay integral (so MapKey canonicalization is exact).
	if got, _ := arith(OpAdd, VInt(2), VInt(3)); got.Kind() != KindInt {
		t.Errorf("int+int should stay int, got %v", got.Kind())
	}
}

func TestArithDivByZero(t *testing.T) {
	got, err := arith(OpDiv, VInt(1), VInt(0))
	if err != nil {
		t.Fatalf("div by zero errored: %v", err)
	}
	if !math.IsInf(got.Float(), 1) {
		t.Errorf("1/0 = %v, want +Inf", got)
	}
	got, err = arith(OpDiv, VInt(-1), VInt(0))
	if err != nil {
		t.Fatalf("-1/0 errored: %v", err)
	}
	if !math.IsInf(got.Float(), -1) {
		t.Errorf("-1/0 = %v, want -Inf", got)
	}
	got, err = arith(OpDiv, VFloat(-2.5), VFloat(0.0))
	if err != nil {
		t.Fatalf("-2.5/0 errored: %v", err)
	}
	if !math.IsInf(got.Float(), -1) {
		t.Errorf("-2.5/0 = %v, want -Inf", got)
	}
	got, err = arith(OpDiv, VInt(0), VInt(0))
	if err != nil {
		t.Fatalf("0/0 errored: %v", err)
	}
	if !math.IsNaN(got.Float()) {
		t.Errorf("0/0 = %v, want NaN", got)
	}
}

func TestMapKeyCanonicalizesCrossTypeEquality(t *testing.T) {
	ka, aok := MapKey(VInt(5))
	kb, bok := MapKey(VFloat(5.0))
	if !aok || !bok || ka != kb {
		t.Fatalf("int 5 and float 5.0 must share a key: %v/%v (%v/%v)", ka, kb, aok, bok)
	}
	if ka != VInt(5) {
		t.Fatalf("canonical key for 5 should be the int value, got %v", ka)
	}
	// Norm kinds collapse too.
	ki, _ := MapKey(V(int8(5)))
	if ki != ka {
		t.Fatalf("int8(5) key %v differs from int64(5) key %v", ki, ka)
	}
}

func TestMapKeyConsistentWithValueEq(t *testing.T) {
	vals := []Value{
		VInt(0), VInt(5), VInt(-3), VFloat(5), VFloat(5.5),
		VFloat(-3), VString("a"), VString("b"), VBool(true), VBool(false),
		Nil(), VFloat(0), VFloat(math.Copysign(0, -1)),
	}
	for _, a := range vals {
		for _, b := range vals {
			ka, aok := MapKey(a)
			kb, bok := MapKey(b)
			if !aok || !bok {
				t.Fatalf("basic value unkeyable: %v %v", a, b)
			}
			if ValueEq(a, b) && ka != kb {
				t.Errorf("ValueEq(%v, %v) but keys %v != %v", a, b, ka, kb)
			}
			if ka == kb && !ValueEq(a, b) {
				t.Errorf("keys collide for unequal %v, %v", a, b)
			}
		}
	}
}

func TestMapKeyNaN(t *testing.T) {
	k, ok := MapKey(VFloat(math.NaN()))
	if !ok {
		t.Fatalf("NaN must be keyable")
	}
	if k.Kind() != KindNaN {
		t.Fatalf("NaN key = %v, want the canonical KindNaN key", k)
	}
	k2, _ := MapKey(VFloat(math.Float64frombits(0x7ff8000000000001))) // a different NaN payload
	if k != k2 {
		t.Fatalf("all NaNs must share one key")
	}
}

func TestMapKeyRejectsHugeIntegralFloats(t *testing.T) {
	// Beyond ±2^53 float rounding makes ValueEq non-transitive across
	// int64s, so integral floats there must be unkeyable. int64 values
	// of any magnitude stay keyable (int64 keys never collide).
	if _, ok := MapKey(VFloat(1 << 53)); ok {
		t.Errorf("float64(2^53) must be unkeyable")
	}
	if _, ok := MapKey(VFloat(-(1 << 53))); ok {
		t.Errorf("float64(-2^53) must be unkeyable")
	}
	if _, ok := MapKey(VFloat(math.Inf(1))); ok {
		t.Errorf("+Inf is integral-and-huge, must be unkeyable")
	}
	if k, ok := MapKey(VFloat(1<<53 - 1)); !ok || k != VInt(1<<53-1) {
		t.Errorf("float64(2^53-1) should key as int: %v %v", k, ok)
	}
	if k, ok := MapKey(VInt(1 << 60)); !ok || k != VInt(1<<60) {
		t.Errorf("large int should stay keyable: %v %v", k, ok)
	}
}

func TestMapKeyRejectsNonBasicKinds(t *testing.T) {
	type pt struct{ x, y int }
	if _, ok := MapKey(V(pt{1, 2})); ok {
		t.Errorf("struct values must be unkeyable")
	}
	if _, ok := MapKey(V([]int{1})); ok {
		t.Errorf("non-comparable values must be unkeyable")
	}
	if _, ok := MapKey(Unset()); ok {
		t.Errorf("the unset sentinel must be unkeyable")
	}
}

func TestKeyHashOkIsMapKeysSecondResult(t *testing.T) {
	type pt struct{ x, y int }
	for _, v := range []Value{
		Nil(), VBool(true), VInt(0), VInt(1 << 60), VString("a"), Unset(),
		VFloat(5), VFloat(5.5), VFloat(math.Copysign(0, -1)), VFloat(math.NaN()),
		VFloat(1<<53 - 1), VFloat(1 << 53), VFloat(-(1 << 53)), VFloat(math.Inf(1)), VFloat(math.Inf(-1)),
		V(pt{1, 2}), V([]int{1}),
	} {
		k, ok := MapKey(v)
		h, got := v.KeyHash()
		if got != ok {
			t.Errorf("KeyHash(%v) ok = %v, MapKey says %v", v, got, ok)
		}
		if !ok {
			continue
		}
		if kh, kok := k.KeyHash(); !kok || kh != h {
			t.Errorf("canonical key %v of %v hashes to %#x, %v; the value to %#x", k, v, kh, kok, h)
		}
	}
}

func TestArithNonNumeric(t *testing.T) {
	if _, err := arith(OpAdd, VString("a"), VInt(1)); err == nil {
		t.Error("arith on string should error")
	}
}

func TestHashConsistentWithMapKey(t *testing.T) {
	pairs := [][2]Value{
		{VInt(5), VFloat(5.0)},
		{VFloat(math.NaN()), VFloat(math.Float64frombits(0x7ff8000000000001))},
		{VFloat(0), VFloat(math.Copysign(0, -1))},
		{VString("abc"), V("abc")},
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("Hash(%v) != Hash(%v) though MapKeys agree", p[0], p[1])
		}
	}
	if VInt(1).Hash() == VInt(2).Hash() {
		t.Error("suspicious hash collision on small ints")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Nil(), "<nil>"},
		{VBool(true), "true"},
		{VInt(-3), "-3"},
		{VFloat(2.5), "2.5"},
		{VFloat(5), "5"},
		{VString("hi"), "hi"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestVecInlineAndSpill(t *testing.T) {
	v := MakeVec(VInt(1), VInt(2), VInt(3))
	if v.Len() != 3 || v.At(2) != VInt(3) {
		t.Fatalf("inline vec broken: %v", v.String())
	}
	if v.String() != "[1 2 3]" {
		t.Errorf("Vec.String = %q", v.String())
	}
	// Spill past MaxInlineArgs.
	for i := 4; i <= 6; i++ {
		v.Append(VInt(int64(i * 10)))
	}
	if v.Len() != 6 || v.At(0) != VInt(1) || v.At(5) != VInt(60) {
		t.Fatalf("spilled vec broken: %v", v.String())
	}
	s := v.Slice()
	if len(s) != 6 || s[3] != VInt(40) {
		t.Fatalf("Slice view broken: %v", s)
	}
	v.Release()
	if v.Len() != 0 {
		t.Error("Release must reset the vec")
	}
}

func TestVecReleaseClearsRefs(t *testing.T) {
	type big struct{ p *int }
	x := 7
	v := Args2(V(big{&x}), VInt(1))
	v.Release()
	for i := 0; i < MaxInlineArgs; i++ {
		if v.inline[i] != (Value{}) {
			t.Fatalf("slot %d retains %v after Release", i, v.inline[i])
		}
	}
}
