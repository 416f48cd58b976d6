package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// MethodSig describes one method of an abstract data type: its name, the
// names of its parameters (used for readable lock-mode names) and whether
// it returns a value.
type MethodSig struct {
	Name   string
	Params []string
	HasRet bool
}

// ADTSig is the signature of an abstract data type: its name and methods.
type ADTSig struct {
	Name    string
	Methods []MethodSig
}

// Method returns the signature of the named method.
func (s *ADTSig) Method(name string) (MethodSig, bool) {
	for _, m := range s.Methods {
		if m.Name == name {
			return m, true
		}
	}
	return MethodSig{}, false
}

// MethodNames returns the method names in declaration order.
func (s *ADTSig) MethodNames() []string {
	out := make([]string, len(s.Methods))
	for i, m := range s.Methods {
		out[i] = m.Name
	}
	return out
}

type pairKey struct{ m1, m2 string }

// Spec is a commutativity specification: one condition per unordered pair
// of methods of an ADT (§2.3). Conditions are stored for ordered pairs;
// the symmetric condition for the reversed pair is derived by swapping
// sides, per the paper's footnote 5. Pairs never Set default to false,
// the conservative bottom condition.
type Spec struct {
	Sig   *ADTSig
	Pure  map[string]bool // state-independent helper functions (dist, part, ...)
	conds map[pairKey]Cond
	// oriented marks unordered pairs whose stored condition is
	// intentionally orientation-sensitive in form: either a genuinely
	// directed override (kd-tree remove~nearest) or a self-pair whose
	// helpers are conventionally evaluated in one state (union-find's
	// union~union). specvet requires the declaration before accepting a
	// stored condition that is not provably symmetric under SwapSides.
	oriented map[pairKey]bool
}

// NewSpec creates an empty (all-false) specification over sig.
func NewSpec(sig *ADTSig) *Spec {
	return &Spec{Sig: sig, Pure: map[string]bool{}, conds: map[pairKey]Cond{}}
}

// DeclarePure marks helper function names as state-independent; pure
// functions around slots keep a condition SIMPLE-implementable via keyed
// (partition) locks.
func (s *Spec) DeclarePure(fns ...string) *Spec {
	for _, f := range fns {
		s.Pure[f] = true
	}
	return s
}

// Set records the commutativity condition for the ordered pair (m1, m2).
// Unless overridden, the condition for (m2, m1) is derived automatically
// by SwapSides, per the paper's footnote 5; in that case the author must
// supply a condition valid in *both* orientations (both-moving
// commutativity). When the mirrored orientation needs a genuinely
// different formula (the kd-tree's remove~nearest does), call Set again
// with the arguments reversed: an explicitly stored direction always wins
// over the swap-derived one. The brute-force checker CheckCondSound
// exercises both orders and catches conditions valid only one way.
// Self-pair (m, m) conditions may be orientation-sensitive in form
// (union-find's union~union evaluates its helpers in s1) as long as they
// are semantically valid either way.
func (s *Spec) Set(m1, m2 string, c Cond) *Spec {
	s.mustHave(m1)
	s.mustHave(m2)
	s.conds[pairKey{m1, m2}] = Simplify(c)
	return s
}

// SetOriented declares the unordered pair {m1, m2} orientation-sensitive:
// its stored condition is not expected to be symmetric under SwapSides.
// The declaration is what lets specvet distinguish a deliberate directed
// override from an author who forgot footnote 5 and wrote a one-sided
// formula.
func (s *Spec) SetOriented(m1, m2 string) *Spec {
	s.mustHave(m1)
	s.mustHave(m2)
	if s.oriented == nil {
		s.oriented = map[pairKey]bool{}
	}
	s.oriented[orientKey(m1, m2)] = true
	return s
}

// IsOriented reports whether {m1, m2} was declared orientation-sensitive.
func (s *Spec) IsOriented(m1, m2 string) bool {
	return s.oriented[orientKey(m1, m2)]
}

// OrientedPairs returns the declared orientation-sensitive pairs in
// canonical (lexicographic) order.
func (s *Spec) OrientedPairs() [][2]string { return sortedPairs(s.oriented) }

// sortedPairs lists m's keys as pairs in lexicographic order.
func sortedPairs[V any](m map[pairKey]V) [][2]string {
	out := make([][2]string, 0, len(m))
	for k := range m {
		out = append(out, [2]string{k.m1, k.m2})
	}
	slices.SortFunc(out, func(a, b [2]string) int {
		return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
	})
	return out
}

// orientKey canonicalizes an unordered pair for the oriented set.
func orientKey(m1, m2 string) pairKey {
	if m2 < m1 {
		m1, m2 = m2, m1
	}
	return pairKey{m1, m2}
}

// StoredPairs returns the ordered pairs that have an explicitly stored
// condition (no swap-derivation, no false default), in canonical order.
// Static spec verification iterates exactly these: they are the formulas
// an author actually wrote.
func (s *Spec) StoredPairs() [][2]string { return sortedPairs(s.conds) }

// StoredCond returns the explicitly stored condition for the ordered
// pair (m1, m2), with no swap-derived or default fallback.
func (s *Spec) StoredCond(m1, m2 string) (Cond, bool) {
	c, ok := s.conds[pairKey{m1, m2}]
	return c, ok
}

func (s *Spec) mustHave(m string) {
	if _, ok := s.Sig.Method(m); !ok {
		panic(fmt.Sprintf("core: ADT %s has no method %s", s.Sig.Name, m))
	}
}

// Cond returns the commutativity condition for the ordered pair (m1, m2):
// the stored condition, the swapped stored condition for (m2, m1), or
// false if neither was set.
func (s *Spec) Cond(m1, m2 string) Cond {
	if c, ok := s.conds[pairKey{m1, m2}]; ok {
		return c
	}
	if c, ok := s.conds[pairKey{m2, m1}]; ok {
		return SwapSides(c)
	}
	return FalseCond{}
}

// Pairs returns every ordered method pair (m1, m2) with m1 ≤ m2 in
// declaration order, which together with symmetry covers the whole spec.
func (s *Spec) Pairs() [][2]string {
	var out [][2]string
	names := s.Sig.MethodNames()
	for i, a := range names {
		for _, b := range names[i:] {
			out = append(out, [2]string{a, b})
		}
	}
	return out
}

// OrderedPairs returns all n² ordered method pairs. Lattice operations
// iterate these so that directed condition overrides (a stored (m2, m1)
// that is not the swap of (m1, m2)) are preserved.
func (s *Spec) OrderedPairs() [][2]string {
	var out [][2]string
	names := s.Sig.MethodNames()
	for _, a := range names {
		for _, b := range names {
			out = append(out, [2]string{a, b})
		}
	}
	return out
}

// Classify returns the class of the whole specification: the least
// restrictive class among its pair conditions.
func (s *Spec) Classify() Class {
	worst := ClassSimple
	for _, p := range s.OrderedPairs() {
		if c := ClassifyWith(s.Cond(p[0], p[1]), s.Pure); c > worst {
			worst = c
		}
	}
	return worst
}

// Clone returns a deep-enough copy of the spec (conditions are immutable).
func (s *Spec) Clone() *Spec {
	out := NewSpec(s.Sig)
	for f := range s.Pure {
		out.Pure[f] = true
	}
	for k, v := range s.conds {
		out.conds[k] = v
	}
	for k := range s.oriented {
		if out.oriented == nil {
			out.oriented = map[pairKey]bool{}
		}
		out.oriented[k] = true
	}
	return out
}

// Meet returns the greatest lower bound of two specifications over the
// same signature: the pointwise conjunction of their conditions (§2.4).
func (s *Spec) Meet(t *Spec) *Spec {
	return s.combine(t, func(a, b Cond) Cond { return And(a, b) })
}

// Join returns the least upper bound: the pointwise disjunction.
func (s *Spec) Join(t *Spec) *Spec {
	return s.combine(t, func(a, b Cond) Cond { return Or(a, b) })
}

func (s *Spec) combine(t *Spec, f func(a, b Cond) Cond) *Spec {
	if s.Sig != t.Sig && s.Sig.Name != t.Sig.Name {
		panic("core: lattice operation over different ADTs")
	}
	out := NewSpec(s.Sig)
	for fn := range s.Pure {
		out.Pure[fn] = true
	}
	for fn := range t.Pure {
		out.Pure[fn] = true
	}
	for _, p := range s.OrderedPairs() {
		out.Set(p[0], p[1], Simplify(f(s.Cond(p[0], p[1]), t.Cond(p[0], p[1]))))
	}
	return out
}

// LE reports whether s ≤ t in the commutativity lattice, i.e. every
// condition of s implies the corresponding condition of t. The underlying
// prover is sound but not complete: a true result is trustworthy, a false
// result means "not proved".
func (s *Spec) LE(t *Spec) bool {
	for _, p := range s.OrderedPairs() {
		if !Implies(s.Cond(p[0], p[1]), t.Cond(p[0], p[1])) {
			return false
		}
	}
	return true
}

// Bottom is the ⊥ specification for sig: no two invocations ever commute.
// Its synthesized abstract-locking implementation is a single global
// exclusive lock (§4.1).
func Bottom(sig *ADTSig) *Spec {
	s := NewSpec(sig)
	for _, p := range s.Pairs() {
		s.Set(p[0], p[1], False())
	}
	return s
}

// String renders the specification one condition per pair, in the style
// of the paper's figures.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s:\n", s.Sig.Name)
	for _, p := range s.Pairs() {
		fmt.Fprintf(&b, "  %s ~ %s  if  %s\n", p[0], p[1], s.Cond(p[0], p[1]))
	}
	return b.String()
}

// PartitionSpec strengthens a SIMPLE specification by replacing every
// slot disequality `x ≠ y` with `key(x) ≠ key(y)` (§4.2, disciplined lock
// coarsening). Since key(x) ≠ key(y) implies x ≠ y, the result is lower
// in the lattice; its synthesized locking scheme locks partitions instead
// of elements. The key function must be registered as pure.
func (s *Spec) PartitionSpec(key string) (*Spec, error) {
	out := NewSpec(s.Sig)
	for f := range s.Pure {
		out.Pure[f] = true
	}
	out.Pure[key] = true
	for _, p := range s.Pairs() {
		c := s.Cond(p[0], p[1])
		form, ok := AsSimple(c, nil)
		if !ok {
			return nil, fmt.Errorf("core: condition for (%s,%s) is not SIMPLE: %s", p[0], p[1], c)
		}
		out.Set(p[0], p[1], partitionCond(form, key))
	}
	return out, nil
}

// Partition is the §4.2 move: PartitionSpec for a spec known to be
// SIMPLE. It panics on any other.
func Partition(spec *Spec, key string) *Spec {
	out, err := spec.PartitionSpec(key)
	if err != nil {
		panic(err)
	}
	return out
}

func partitionCond(form *SimpleForm, key string) Cond {
	switch form.Kind {
	case SimpleTrue:
		return True()
	case SimpleFalse:
		return False()
	}
	parts := make([]Cond, len(form.Conjuncts))
	for i, cj := range form.Conjuncts {
		parts[i] = Ne(
			FnTerm{Fn: key, State: First, Args: []Term{slotTerm(cj.X, First)}},
			FnTerm{Fn: key, State: Second, Args: []Term{slotTerm(cj.Y, Second)}},
		)
	}
	return And(parts...)
}

func slotTerm(s SlotRef, side Side) Term {
	if s.IsRet {
		return RetTerm{Side: side}
	}
	return ArgTerm{Side: side, Index: s.Arg}
}
