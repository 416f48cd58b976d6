package apps

import (
	"reflect"
	"testing"

	"commlat/internal/abslock"
	"commlat/internal/analysis"
	"commlat/internal/core"
)

// sameLatticePoint reports whether a and b are provably equal in the
// lattice: each is ≤ the other.
func sameLatticePoint(a, b *core.Spec) bool { return a.LE(b) && b.LE(a) }

// TestSpecsAreOneTopAndItsMoves: every ADT has exactly one hand-written
// point, and every other point is its parent's named move — the same
// lattice point and, where Synthesize applies, the same lock scheme,
// full and reduced, as the move applied to the parent.
func TestSpecsAreOneTopAndItsMoves(t *testing.T) {
	points := map[[2]string]Point{}
	tops := map[string]int{}
	for _, p := range Specs() {
		key := [2]string{p.ADT, p.Name}
		if _, dup := points[key]; dup {
			t.Errorf("%s/%s listed twice", p.ADT, p.Name)
		}
		points[key] = p
		spec := p.Spec()
		if spec.Sig.Name != p.ADT {
			t.Errorf("%s/%s builds a spec of ADT %s", p.ADT, p.Name, spec.Sig.Name)
		}
		if p.Parent == "" {
			tops[p.ADT]++
			if p.Move.Apply != nil {
				t.Errorf("%s/%s has a move but no parent", p.ADT, p.Name)
			}
			continue
		}
		parent, ok := points[[2]string{p.ADT, p.Parent}]
		if !ok || p.Move.Apply == nil {
			t.Errorf("%s/%s: parent %q not listed before it, or no move", p.ADT, p.Name, p.Parent)
			continue
		}
		moved := p.Move.Apply(parent.Spec())
		if !sameLatticePoint(spec, moved) {
			t.Errorf("%s/%s is not %s of %s:\n%s\nwant\n%s", p.ADT, p.Name, p.Move.Name, p.Parent, spec, moved)
		}
		if !moved.LE(parent.Spec()) {
			t.Errorf("%s/%s: %s does not land below %s", p.ADT, p.Name, p.Move.Name, p.Parent)
		}
		got, err := abslock.Synthesize(spec)
		if err != nil {
			continue // not SIMPLE: no scheme to compare
		}
		want, err := abslock.Synthesize(moved)
		if err != nil {
			t.Fatalf("%s/%s synthesizes, its move does not: %v", p.ADT, p.Name, err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got.Reduce(), want.Reduce()) {
			t.Errorf("%s/%s: scheme\n%s\nwant, from the move\n%s", p.ADT, p.Name, got.MatrixString(), want.MatrixString())
		}
	}
	for adt, n := range tops {
		if n != 1 {
			t.Errorf("%s has %d hand-written points, want 1", adt, n)
		}
	}
}

// TestSpecsVetClean runs specvet over every shipped point: well-formed,
// symmetric under side swap unless declared oriented, and above its
// SIMPLE strengthening.
func TestSpecsVetClean(t *testing.T) {
	for _, p := range Specs() {
		for _, f := range analysis.VetSpec(p.ADT+"/"+p.Name, p.Spec()) {
			t.Errorf("%s: %s", f.Pos, f.Message)
		}
	}
}
