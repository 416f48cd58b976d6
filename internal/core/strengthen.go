package core

import "slices"

// StrengthenToSimple derives a SIMPLE specification lying below spec in
// the commutativity lattice, automating the §4.1 discipline that turns
// figure 2 into figure 3 ("choose a less precise specification from the
// lattice that can be implemented more efficiently"). For each pair:
//
//   - a condition that is already SIMPLE is kept unchanged;
//   - otherwise the result is the conjunction of every slot disequality
//     `x ≠ y` (x a slot of m1, y a slot of m2) that *provably implies*
//     the original condition (via the sound Implies prover);
//   - when no single disequality implies it, the conjunction of all of
//     them is tried and greedily minimized (conditions like
//     `(u≠w ∧ v≠w) ∨ junk` need two literals together);
//   - if even that fails, the condition falls to false — e.g. the
//     kd-tree's nearest~add, for which the paper notes no useful SIMPLE
//     condition exists.
//
// Every strengthened condition implies the original (each conjunct does,
// hence the conjunction does), so the result is ≤ spec and any detector
// sound for it is sound for spec. The result is always synthesizable by
// abslock.Synthesize.
func StrengthenToSimple(spec *Spec) *Spec {
	out := NewSpec(spec.Sig)
	for f := range spec.Pure {
		out.Pure[f] = true
	}
	for _, p := range spec.OrderedPairs() {
		out.Set(p[0], p[1], strengthenCond(spec, p[0], p[1]))
	}
	return out
}

func strengthenCond(spec *Spec, m1, m2 string) Cond {
	c := Simplify(spec.Cond(m1, m2))
	if _, ok := AsSimple(c, nil); ok {
		return c
	}
	var conj, all []Cond
	for _, x := range methodSlots(spec.Sig, m1) {
		for _, y := range methodSlots(spec.Sig, m2) {
			ne := Ne(slotTerm(x, First), slotTerm(y, Second))
			all = append(all, ne)
			if Implies(ne, c) {
				conj = append(conj, ne)
			}
		}
	}
	if len(conj) > 0 {
		return Simplify(And(conj...))
	}
	// No single literal suffices; try the full conjunction and greedily
	// drop literals while implication still holds.
	if !Implies(And(all...), c) {
		return False()
	}
	kept := append([]Cond(nil), all...)
	for i := 0; i < len(kept); {
		trial := append(append([]Cond(nil), kept[:i]...), kept[i+1:]...)
		if len(trial) > 0 && Implies(And(trial...), c) {
			kept = trial
		} else {
			i++
		}
	}
	return Simplify(And(kept...))
}

// ReadWrite is the specification that read/write locks on arguments
// implement: two of the read methods always commute, and any other pair
// commutes when the two invocations share no argument value.
func ReadWrite(sig *ADTSig, reads ...string) *Spec {
	s := NewSpec(sig)
	for _, p := range s.Pairs() {
		if slices.Contains(reads, p[0]) && slices.Contains(reads, p[1]) {
			s.Set(p[0], p[1], True())
		} else {
			s.Set(p[0], p[1], argsDisjoint(sig, p[0], p[1]))
		}
	}
	return s
}

// Exclusive is §4.1's move from read/write locks to exclusive ones: a
// pair that always commutes (two reads) commutes only when the two
// invocations share no argument value; the other pairs are kept. The
// result is ≤ spec, and SIMPLE when spec is.
func Exclusive(spec *Spec) *Spec {
	out := spec.Clone()
	for _, p := range spec.OrderedPairs() {
		if _, ok := spec.Cond(p[0], p[1]).(TrueCond); ok {
			out.Set(p[0], p[1], argsDisjoint(spec.Sig, p[0], p[1]))
		}
	}
	return out
}

// argsDisjoint is the conjunction of x ≠ y over every argument x of m1
// and y of m2, in argument order; false when either takes none.
func argsDisjoint(sig *ADTSig, m1, m2 string) Cond {
	ms1, _ := sig.Method(m1)
	ms2, _ := sig.Method(m2)
	if len(ms1.Params) == 0 || len(ms2.Params) == 0 {
		return False()
	}
	var ne []Cond
	for i := range ms1.Params {
		for j := range ms2.Params {
			ne = append(ne, Ne(ArgTerm{Side: First, Index: i}, ArgTerm{Side: Second, Index: j}))
		}
	}
	return And(ne...)
}

// methodSlots enumerates a method's data-member slots: its arguments and
// (if any) its return value.
func methodSlots(sig *ADTSig, method string) []SlotRef {
	ms, ok := sig.Method(method)
	if !ok {
		return nil
	}
	slots := make([]SlotRef, 0, len(ms.Params)+1)
	for i := range ms.Params {
		slots = append(slots, SlotRef{Arg: i})
	}
	if ms.HasRet {
		slots = append(slots, SlotRef{IsRet: true})
	}
	return slots
}
