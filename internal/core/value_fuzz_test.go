package core

import (
	"math"
	"testing"
)

// This fuzz test pins the tagged value representation to the boxed
// semantics it replaced: ValueEq, Compare and MapKey on tagged Values
// must agree with the original `Value = any` implementation (reproduced
// below as the oracle) for every mix of spellings — int64 vs float64
// spellings of the same number, NaN, ±0, integral floats at and beyond
// ±2^53, strings, and comparable user types.

// boxedNorm is the old Norm over `any`.
func boxedNorm(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case int64:
		return x
	case uint:
		return int64(x)
	case uint8:
		return int64(x)
	case uint16:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}

// boxedValueEq is the old ValueEq over `any`.
func boxedValueEq(a, b any) bool {
	a, b = boxedNorm(a), boxedNorm(b)
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return x == y
		case float64:
			return float64(x) == y
		}
	case float64:
		switch y := b.(type) {
		case int64:
			return x == float64(y)
		case float64:
			return x == y
		}
	}
	return a == b
}

func boxedToFloat(v any) (float64, bool) {
	switch x := boxedNorm(v).(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// boxedCompare is the old three-way numeric ordering: ok=false mirrors
// the old valueLess error for non-numeric operands.
func boxedCompare(a, b any) (int, bool) {
	af, aok := boxedToFloat(a)
	bf, bok := boxedToFloat(b)
	if !aok || !bok {
		return 0, false
	}
	switch {
	case af < bf:
		return -1, true
	case bf < af:
		return 1, true
	default:
		return 0, true
	}
}

// boxedNaNKey stands in for the old NaNKey struct.
type boxedNaNKey struct{}

// boxedMapKey is the old MapKey over `any`.
func boxedMapKey(v any) (any, bool) {
	switch x := boxedNorm(v).(type) {
	case nil:
		return nil, true
	case bool:
		return x, true
	case string:
		return x, true
	case int64:
		return x, true
	case float64:
		if math.IsNaN(x) {
			return boxedNaNKey{}, true
		}
		if x == math.Trunc(x) {
			if x > -maxExactFloatKey && x < maxExactFloatKey {
				return int64(x), true
			}
			return nil, false
		}
		return x, true
	default:
		return nil, false
	}
}

// fuzzUser is the comparable user type exercising the ref escape hatch.
type fuzzUser struct{ X, Y int64 }

// spellValue derives one boxed `any` from the fuzzer-chosen selector and
// raw material. The universe deliberately includes every hazard named in
// the representation's contracts.
func spellValue(sel uint8, i int64, f float64, s string) any {
	switch sel % 16 {
	case 0:
		return nil
	case 1:
		return i&1 == 0
	case 2:
		return i
	case 3:
		return int(int32(i)) // narrower int spelling
	case 4:
		return uint64(i) // unsigned spelling, wraps through int64
	case 5:
		return f
	case 6:
		return float32(f) // loses precision through Norm
	case 7:
		return float64(i) // integral float spelling of an int
	case 8:
		return math.NaN()
	case 9:
		return math.Copysign(0, -1) // -0.0 (ValueEq-equal to +0.0 and int 0)
	case 10:
		return math.Inf(int(i%2)*2 - 1)
	case 11:
		// Integral floats straddling the ±2^53 exactness boundary.
		return float64(int64(1)<<53) + float64(i%8)
	case 12:
		return math.Trunc(f) // integral float from the float material
	case 13:
		return s
	case 14:
		return fuzzUser{X: i, Y: int64(len(s))}
	default:
		return i % 4 // tiny ints: collisions with float spellings likely
	}
}

func FuzzValueSemanticsMatchBoxed(f *testing.F) {
	f.Add(uint8(2), uint8(7), int64(5), 5.0, "a", "a")     // int 5 vs float 5.0
	f.Add(uint8(8), uint8(8), int64(0), 0.0, "", "")       // NaN vs NaN
	f.Add(uint8(9), uint8(2), int64(0), 0.0, "", "")       // -0.0 vs int 0
	f.Add(uint8(11), uint8(2), int64(1)<<53, 0.0, "", "")  // 2^53 float vs int
	f.Add(uint8(13), uint8(13), int64(0), 0.0, "x", "x")   // equal strings
	f.Add(uint8(14), uint8(14), int64(3), 0.0, "ab", "ab") // user type
	f.Add(uint8(6), uint8(5), int64(0), 1.5, "", "")       // float32 rounding
	f.Add(uint8(10), uint8(10), int64(0), 0.0, "", "")     // ±Inf
	f.Fuzz(func(t *testing.T, selA, selB uint8, i int64, fl float64, s1, s2 string) {
		ba := spellValue(selA, i, fl, s1)
		bb := spellValue(selB, i+int64(selB%3), fl, s2)
		va, vb := V(ba), V(bb)

		// ValueEq must agree with the boxed semantics.
		if got, want := ValueEq(va, vb), boxedValueEq(ba, bb); got != want {
			t.Fatalf("ValueEq(%#v, %#v) = %v, boxed semantics say %v", ba, bb, got, want)
		}

		// Compare must agree in both definedness and result.
		gotC, gotErr := Compare(va, vb)
		wantC, wantOK := boxedCompare(ba, bb)
		if (gotErr == nil) != wantOK {
			t.Fatalf("Compare(%#v, %#v) err=%v, boxed definedness %v", ba, bb, gotErr, wantOK)
		}
		if gotErr == nil && gotC != wantC {
			t.Fatalf("Compare(%#v, %#v) = %d, boxed semantics say %d", ba, bb, gotC, wantC)
		}

		// MapKey must agree on keyability, and the keys must induce the
		// same partition as the old keys did.
		ka, okA := MapKey(va)
		kb, okB := MapKey(vb)
		bka, bokA := boxedMapKey(ba)
		bkb, bokB := boxedMapKey(bb)
		if okA != bokA || okB != bokB {
			t.Fatalf("MapKey keyability: (%v,%v) vs boxed (%v,%v) for %#v, %#v", okA, okB, bokA, bokB, ba, bb)
		}
		if okA && okB {
			if (ka == kb) != (bka == bkb) {
				t.Fatalf("MapKey partition: tagged keys equal=%v, boxed keys equal=%v for %#v, %#v",
					ka == kb, bka == bkb, ba, bb)
			}
			// And the documented contract: ValueEq values share a key.
			if ValueEq(va, vb) && ka != kb {
				t.Fatalf("ValueEq(%#v, %#v) but MapKeys differ: %v vs %v", ba, bb, ka, kb)
			}
		}

		// KeyHash is MapKey then Hash in one step — the canonical key's
		// hash and MapKey's ok — and Hash is KeyHash wherever that is ok,
		// so ValueEq-equal keyable values (equal keys, above) hash alike.
		for _, c := range []struct {
			v, k Value
			ok   bool
		}{{va, ka, okA}, {vb, kb, okB}} {
			h, ok := c.v.KeyHash()
			if ok != c.ok || ok && (h != c.k.Hash() || h != c.v.Hash()) {
				t.Fatalf("KeyHash(%#v) = %#x, %v; MapKey gives %v, %v hashing to %#x; Hash = %#x",
					c.v.Unbox(), h, ok, c.k, c.ok, c.k.Hash(), c.v.Hash())
			}
		}
	})
}
