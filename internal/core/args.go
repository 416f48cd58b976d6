package core

import (
	"strings"
	"sync"
)

// MaxInlineArgs is the number of Values a Vec stores inline without heap
// allocation. Every specification in examples/specs (and every ADT in
// this repo) has methods of at most 4 arguments, so the invocation hot
// path never spills.
const MaxInlineArgs = 4

// Vec is a small vector of Values optimized for the invocation hot path:
// up to MaxInlineArgs values live in a fixed inline array, so argument
// lists and per-entry state-function logs travel inside gatekeeper
// entries, abstract-lock acquisitions and transaction records with zero
// heap allocation. Longer vectors spill to a pooled slice.
//
// Vec is a value type and may be copied freely while unspilled. A
// spilled Vec shares its spill slice across copies; only one copy may
// Release it. Mutating methods use pointer receivers — call them on
// addressable Vecs.
type Vec struct {
	n      int32
	inline [MaxInlineArgs]Value
	spill  []Value // when n > MaxInlineArgs, holds all n values
}

var vecSpillPool = sync.Pool{New: func() any { s := make([]Value, 0, 2*MaxInlineArgs); return &s }}

// MakeVec builds a Vec from vs. The variadic slice is copied, so the
// call allocates only when len(vs) > MaxInlineArgs (and then from a
// pool).
func MakeVec(vs ...Value) Vec {
	var v Vec
	v.SetLen(len(vs))
	for i, x := range vs {
		v.Set(i, x)
	}
	return v
}

// Args1 builds a 1-value Vec without any slice construction at the call
// site.
func Args1(a Value) Vec {
	return Vec{n: 1, inline: [MaxInlineArgs]Value{a}}
}

// Args2 builds a 2-value Vec.
func Args2(a, b Value) Vec {
	return Vec{n: 2, inline: [MaxInlineArgs]Value{a, b}}
}

// Len returns the number of values.
func (v *Vec) Len() int { return int(v.n) }

// At returns the i-th value.
func (v *Vec) At(i int) Value {
	if v.spill != nil {
		return v.spill[i]
	}
	return v.inline[i]
}

// Set replaces the i-th value.
func (v *Vec) Set(i int, x Value) {
	if v.spill != nil {
		v.spill[i] = x
		return
	}
	v.inline[i] = x
}

// SetLen resizes the Vec to n values, zeroing new slots. Shrinking back
// under MaxInlineArgs keeps an existing spill (values stay in it) to
// avoid copying; Release returns it to the pool.
func (v *Vec) SetLen(n int) {
	if n <= int(v.n) {
		// Zero the dropped tail so no user refs are retained.
		for i := n; i < int(v.n); i++ {
			v.Set(i, Value{})
		}
		v.n = int32(n)
		return
	}
	if n > MaxInlineArgs && v.spill == nil {
		sp := *vecSpillPool.Get().(*[]Value)
		for len(sp) < n {
			sp = append(sp, Value{})
		}
		sp = sp[:n]
		copy(sp, v.inline[:v.n])
		for i := range v.inline {
			v.inline[i] = Value{}
		}
		v.spill = sp
	} else if v.spill != nil {
		for len(v.spill) < n {
			v.spill = append(v.spill, Value{})
		}
		v.spill = v.spill[:n]
	}
	for i := int(v.n); i < n; i++ {
		v.Set(i, Value{})
	}
	v.n = int32(n)
}

// Append adds a value at the end.
func (v *Vec) Append(x Value) {
	v.SetLen(int(v.n) + 1)
	v.Set(int(v.n)-1, x)
}

// Slice returns a live view of the values: the inline array for short
// vecs, the spill for long ones. The view aliases the Vec — do not
// retain it past the Vec's lifetime, and do not call it on a Vec that
// will be copied while the view is in use.
func (v *Vec) Slice() []Value {
	if v.spill != nil {
		return v.spill[:v.n]
	}
	return v.inline[:v.n]
}

// CopySlice appends the values to dst and returns it (for callers that
// need an independent []Value).
func (v *Vec) CopySlice(dst []Value) []Value {
	return append(dst, v.Slice()...)
}

// Release zeroes every value (so pooled records don't retain user-type
// references) and returns any spill slice to the pool. The Vec is reset
// to empty and remains usable.
func (v *Vec) Release() {
	for i := 0; i < int(v.n); i++ {
		v.Set(i, Value{})
	}
	if v.spill != nil {
		sp := v.spill[:0]
		v.spill = nil
		vecSpillPool.Put(&sp)
	}
	v.n = 0
}

// String renders the Vec like a Go slice of the old boxed values
// ("[1 2]"), keeping conflict-error messages stable. Value receiver so
// %v formatting works on Vec copies as well as pointers.
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < int(v.n); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		x := v.At(i)
		b.WriteString(x.String())
	}
	b.WriteByte(']')
	return b.String()
}
