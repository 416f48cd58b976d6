// Package core implements the commutativity-condition framework of
// "Exploiting the Commutativity Lattice" (Kulkarni et al., PLDI 2011).
//
// A commutativity condition is a predicate over a pair of method
// invocations — their arguments, return values, and functions of the
// abstract states they were invoked in — that, when true, guarantees the
// two invocations can be reordered in any C-equivalent history (Definition
// 3 of the paper). Conditions are represented as ASTs in the paper's logic
// L1 (figure 1) so that the rest of the system can classify them into the
// sub-logics L2 (SIMPLE) and L3 (ONLINE-CHECKABLE), arrange specifications
// into the commutativity lattice, and synthesize conflict detectors.
package core

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic kind of a tagged Value.
type Kind uint8

// The value kinds of the logic's dynamic domain.
const (
	KindNil    Kind = iota // no value (void returns); the zero Value
	KindBool               // bits is 0 or 1
	KindInt                // bits holds the int64 bit pattern
	KindFloat              // bits holds math.Float64bits
	KindString             // str holds the string, bits its precomputed hash
	KindNaN                // canonical NaN map key produced by MapKey
	KindUnset              // detector-internal "slot not filled" sentinel
	KindRef                // escape hatch: arbitrary (comparable) user types
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindNaN:
		return "NaN-key"
	case KindUnset:
		return "unset"
	case KindRef:
		return "ref"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is the dynamic value domain of the logic: method arguments, return
// values, constants and state-function results. It is an inline tagged
// union — booleans, integers (normalized to int64), floats (normalized to
// float64) and strings are stored unboxed, so constructing, comparing,
// hashing and map-keying them never allocates. Comparable user types (graph
// nodes, points) ride in the ref escape hatch and compare with ==.
//
// The zero Value is the nil value (KindNil), used for methods without a
// meaningful return. Values of basic kinds are canonical: two equal
// numbers/strings/bools built by any constructor are == as Go structs, so
// Value works directly as a map key (subject to the MapKey caveats for
// cross-kind numeric equality).
type Value struct {
	kind Kind
	bits uint64 // bool: 0/1; int: int64 bits; float: Float64bits; string: hash
	str  string
	ref  any
}

// Nil returns the nil Value (identical to the zero Value).
func Nil() Value { return Value{} }

// VBool returns a boolean Value.
func VBool(b bool) Value {
	var bits uint64
	if b {
		bits = 1
	}
	return Value{kind: KindBool, bits: bits}
}

// VInt returns an integer Value.
func VInt(i int64) Value { return Value{kind: KindInt, bits: uint64(i)} }

// VFloat returns a float Value.
func VFloat(f float64) Value { return Value{kind: KindFloat, bits: math.Float64bits(f)} }

// VString returns a string Value. The hash is precomputed so later Hash
// calls are O(1).
func VString(s string) Value { return Value{kind: KindString, bits: fnv64(s), str: s} }

// Unset returns the detector-internal sentinel marking an unfilled slot.
// It compares unequal (via ValueEq) to every value including itself.
func Unset() Value { return Value{kind: KindUnset} }

// V converts a Go value into a tagged Value, normalizing so that equality
// and ordering behave uniformly: every integer kind becomes KindInt
// (int64) and float32 becomes KindFloat (float64). A Value passes through
// unchanged; nil becomes the nil Value; other types go to KindRef, and
// must be comparable with == if they will be compared or indexed.
//
// Normalization happens once at construction, so every later
// ValueEq/Compare/MapKey/Hash is allocation-free.
func V(x any) Value {
	switch v := x.(type) {
	case nil:
		return Value{}
	case Value:
		return v
	case bool:
		return VBool(v)
	case int:
		return VInt(int64(v))
	case int8:
		return VInt(int64(v))
	case int16:
		return VInt(int64(v))
	case int32:
		return VInt(int64(v))
	case int64:
		return VInt(v)
	case uint:
		return VInt(int64(v))
	case uint8:
		return VInt(int64(v))
	case uint16:
		return VInt(int64(v))
	case uint32:
		return VInt(int64(v))
	case uint64:
		return VInt(int64(v))
	case float32:
		return VFloat(float64(v))
	case float64:
		return VFloat(v)
	case string:
		return VString(v)
	default:
		return Value{kind: KindRef, ref: x}
	}
}

// Kind reports the value's kind tag.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// IsUnset reports whether v is the unset sentinel.
func (v Value) IsUnset() bool { return v.kind == KindUnset }

// AsBool returns the boolean payload, if v is a bool.
func (v Value) AsBool() (bool, bool) { return v.bits != 0, v.kind == KindBool }

// AsInt returns the integer payload, if v is an int.
func (v Value) AsInt() (int64, bool) { return int64(v.bits), v.kind == KindInt }

// AsNumber returns v as a float64 if it is numeric (int or float).
func (v Value) AsNumber() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.bits)), true
	case KindFloat:
		return math.Float64frombits(v.bits), true
	default:
		return 0, false
	}
}

// AsString returns the string payload, if v is a string.
func (v Value) AsString() (string, bool) { return v.str, v.kind == KindString }

// Bool returns the boolean payload or panics, mirroring a .(bool)
// assertion on the old boxed representation.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("core: Value is " + v.kind.String() + ", not bool")
	}
	return v.bits != 0
}

// Int returns the integer payload or panics, mirroring .(int64).
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("core: Value is " + v.kind.String() + ", not int")
	}
	return int64(v.bits)
}

// Float returns the float payload or panics, mirroring .(float64).
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic("core: Value is " + v.kind.String() + ", not float")
	}
	return math.Float64frombits(v.bits)
}

// Str returns the string payload or panics, mirroring .(string).
func (v Value) Str() string {
	if v.kind != KindString {
		panic("core: Value is " + v.kind.String() + ", not string")
	}
	return v.str
}

// Ref returns the user-type payload or panics.
func (v Value) Ref() any {
	if v.kind != KindRef {
		panic("core: Value is " + v.kind.String() + ", not ref")
	}
	return v.ref
}

// Unbox returns the value as a plain Go any, the way the old boxed
// representation stored it: nil, bool, int64, float64, string, or the
// user value. It allocates for kinds a Go interface cannot hold inline.
func (v Value) Unbox() any {
	switch v.kind {
	case KindNil:
		return nil
	case KindBool:
		return v.bits != 0
	case KindInt:
		return int64(v.bits)
	case KindFloat:
		return math.Float64frombits(v.bits)
	case KindString:
		return v.str
	case KindRef:
		return v.ref
	case KindNaN:
		return math.NaN()
	default:
		return nil
	}
}

// String renders the value the way fmt's %v rendered the boxed form, so
// spec pretty-printing and error messages are stable across the
// representation change.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "<nil>"
	case KindBool:
		if v.bits != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.bits), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.bits), 'g', -1, 64)
	case KindString:
		return v.str
	case KindNaN:
		return "NaN-key"
	case KindUnset:
		return "<unset>"
	case KindRef:
		return fmt.Sprint(v.ref)
	default:
		return "<invalid>"
	}
}

// Hash is KeyHash made total: the canonical key hash where there is one
// (so int64(5) and float64(5.0) collide as ValueEq demands), and for the
// values KeyHash refuses a hash of the representation — still equal for
// == refs, which hash by their printed form (the only allocating case).
func (v Value) Hash() uint64 {
	if h, ok := v.KeyHash(); ok {
		return h
	}
	switch v.kind {
	case KindFloat: // integral, at or beyond ±2^53
		return splitmix64(v.bits)
	case KindUnset:
		return 0xdeadbeefdeadbeef
	default:
		return fnv64(fmt.Sprint(v.ref))
	}
}

// KeyHash is the canonical key hash, the one name detectors give a
// value: the hash of MapKey(v) without materializing the key, through a
// pointer receiver so no Value is copied. ValueEq-equal keyable values
// have equal hashes. The boolean is MapKey's second result: false means
// v cannot be keyed soundly and the caller must treat it as colliding
// with everything.
func (v *Value) KeyHash() (uint64, bool) {
	switch v.kind {
	case KindNil:
		return 0x9e3779b97f4a7c15, true
	case KindBool:
		if v.bits != 0 {
			return 0x5bd1e9955bd1e995, true
		}
		return 0x2545f4914f6cdd1d, true
	case KindInt, KindString:
		return splitmix64(v.bits), true
	case KindNaN:
		return 0x7ff8000000000000, true
	case KindFloat:
		x := math.Float64frombits(v.bits)
		if math.IsNaN(x) {
			return 0x7ff8000000000000, true
		}
		if x == math.Trunc(x) {
			if x > -maxExactFloatKey && x < maxExactFloatKey {
				return splitmix64(uint64(int64(x))), true
			}
			return 0, false
		}
		return splitmix64(math.Float64bits(x)), true
	default:
		return 0, false
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a fast,
// well-mixed 64-bit hash for integer keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over the bytes of s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ValueEq reports whether two values are equal. An int and a float
// compare equal when they denote the same number, mirroring the
// arithmetic-friendly equality of L1. NaN is unequal to everything
// (including itself); the unset sentinel likewise.
func ValueEq(a, b Value) bool {
	if a.kind == b.kind {
		switch a.kind {
		case KindNil:
			return true
		case KindBool, KindInt:
			return a.bits == b.bits
		case KindFloat:
			return math.Float64frombits(a.bits) == math.Float64frombits(b.bits)
		case KindString:
			return a.str == b.str
		case KindNaN:
			// The canonical NaN key exists only so an index can bucket
			// NaNs together; as a value it keeps NaN's self-inequality.
			return false
		case KindUnset:
			return false
		case KindRef:
			return a.ref == b.ref
		}
		return false
	}
	// Cross-kind: only int/float mix.
	if a.kind == KindInt && b.kind == KindFloat {
		return float64(int64(a.bits)) == math.Float64frombits(b.bits)
	}
	if a.kind == KindFloat && b.kind == KindInt {
		return math.Float64frombits(a.bits) == float64(int64(b.bits))
	}
	return false
}

// Compare orders two numeric values three-way: -1 if a < b, +1 if b < a,
// 0 otherwise (which for NaN operands means "unordered", matching IEEE
// comparison semantics where <, > and = are all false). It returns an
// error for non-numeric operands since L1 only defines < and > on
// arithmetic terms.
func Compare(a, b Value) (int, error) {
	af, aok := a.AsNumber()
	bf, bok := b.AsNumber()
	if !aok || !bok {
		return 0, fmt.Errorf("core: ordering undefined for %s and %s", a.kind, b.kind)
	}
	switch {
	case af < bf:
		return -1, nil
	case bf < af:
		return 1, nil
	default:
		return 0, nil
	}
}

// valueLess orders two numeric values; it returns an error for
// non-numeric operands.
func valueLess(a, b Value) (bool, error) {
	c, err := Compare(a, b)
	return c < 0, err
}

// arith applies an arithmetic operator to two numeric values. Integer
// operands stay integral except for division, which is performed in
// floating point to avoid surprising truncation in distance computations.
func arith(op ArithOp, a, b Value) (Value, error) {
	if a.kind == KindInt && b.kind == KindInt && op != OpDiv {
		ai, bi := int64(a.bits), int64(b.bits)
		switch op {
		case OpAdd:
			return VInt(ai + bi), nil
		case OpSub:
			return VInt(ai - bi), nil
		case OpMul:
			return VInt(ai * bi), nil
		}
	}
	af, aok := a.AsNumber()
	bf, bok := b.AsNumber()
	if !aok || !bok {
		return Value{}, fmt.Errorf("core: arithmetic undefined for %s and %s", a.kind, b.kind)
	}
	switch op {
	case OpAdd:
		return VFloat(af + bf), nil
	case OpSub:
		return VFloat(af - bf), nil
	case OpMul:
		return VFloat(af * bf), nil
	case OpDiv:
		// IEEE-754 semantics: x/0 is ±Inf by the sign of x (and of the
		// zero), 0/0 is NaN.
		return VFloat(af / bf), nil
	}
	return Value{}, fmt.Errorf("core: unknown arithmetic op %v", op)
}

// maxExactFloatKey bounds the integral float64 range MapKey folds onto
// int keys: beyond ±2^53 distinct int64 values round onto the same
// float64, so a single canonical key can no longer represent the
// (non-transitive!) cross-type equalities ValueEq admits there.
const maxExactFloatKey = 1 << 53

// MapKey canonicalizes a value into a key consistent with ValueEq: if
// ValueEq(a, b) then MapKey(a) == MapKey(b), and if MapKey(a) ==
// MapKey(b) and the key is not the NaN key then ValueEq(a, b). In
// particular int 5 and float 5.0, which ValueEq equates, share the key
// VInt(5); every NaN maps to the KindNaN key (all NaNs share it, which
// over-approximates collision — safe for an index that must only ever
// surface too many candidates, never too few). The second result is
// false for values the map cannot key soundly — integral floats at or
// beyond ±2^53 (where float rounding makes ValueEq non-transitive across
// int64s) and ref values (which may not even be comparable); callers
// must treat such values as potentially colliding with everything.
func MapKey(v Value) (Value, bool) {
	switch v.kind {
	case KindNil, KindBool, KindInt, KindString, KindNaN:
		return v, true
	case KindFloat:
		x := math.Float64frombits(v.bits)
		if math.IsNaN(x) {
			return Value{kind: KindNaN}, true
		}
		if x == math.Trunc(x) {
			if x > -maxExactFloatKey && x < maxExactFloatKey {
				return VInt(int64(x)), true
			}
			return Value{}, false
		}
		// Non-integral floats are already canonical bit patterns
		// (±0.0 and NaN were handled above); rebuild to be safe.
		return VFloat(x), true
	default:
		return Value{}, false
	}
}
