package analysis

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"commlat/internal/core"
	"commlat/internal/spectext"
)

// specvet statically verifies commutativity specifications, replacing
// brute-force model enumeration (core.CheckCondSound) as the first line
// of defense for spectext inputs. Three obligations, all discharged by
// the symbolic implication engine — no model, no enumeration:
//
//   - well-formedness: every term of every stored condition resolves
//     against the pair's method signatures (argument indices in range,
//     return values only on methods that have them, sides 1/2 only);
//   - symmetry: a condition stored for (m1, m2) answers queries for
//     (m2, m1) through SwapSides (the paper's footnote 5), so a stored
//     mirror — or a self-pair condition — must be provably equivalent
//     to the swap of its counterpart unless the pair is explicitly
//     declared `oriented m1 ~ m2`;
//   - lattice monotonicity: the SIMPLE strengthening of the spec must
//     be provably ≤ the spec itself, pair by pair (the construction
//     promises it; the prover re-derives it, so a regression in either
//     is caught at vet time).
//
// The prover is sound but incomplete, so specvet can report "not
// provable" for a condition that is in fact symmetric; the fix is to
// spell the two directions as syntactic mirrors or declare the pair
// oriented (and then the enumeration-based CheckCondSound remains as
// the dynamic backstop).

// VetSpec statically verifies one spec and returns its findings.
func VetSpec(name string, spec *core.Spec) []Finding {
	var out []Finding
	report := func(pair [2]string, format string, args ...any) {
		out = append(out, Finding{
			Analyzer: "specvet",
			Pos:      fmt.Sprintf("%s: %s ~ %s", name, pair[0], pair[1]),
			Message:  fmt.Sprintf(format, args...),
		})
	}

	stored := spec.StoredPairs()
	storedSet := map[[2]string]bool{}
	for _, p := range stored {
		storedSet[p] = true
	}

	// Well-formedness of every stored formula.
	for _, p := range stored {
		c, _ := spec.StoredCond(p[0], p[1])
		sig1, _ := spec.Sig.Method(p[0])
		sig2, _ := spec.Sig.Method(p[1])
		for _, msg := range illFormed(c, sig1, sig2) {
			report(p, "ill-formed condition: %s", msg)
		}
	}

	// Symmetry up to renaming (side swap).
	seen := map[[2]string]bool{}
	for _, p := range stored {
		m1, m2 := p[0], p[1]
		c12, _ := spec.StoredCond(m1, m2)
		if m1 == m2 {
			if !core.Equivalent(c12, core.SwapSides(c12)) && !spec.IsOriented(m1, m2) {
				report(p, "self-pair condition is not provably symmetric under side swap; if the orientation is intended, declare `oriented %s ~ %s`", m1, m2)
			}
			continue
		}
		key := [2]string{m1, m2}
		if m2 < m1 {
			key = [2]string{m2, m1}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		c21, ok := spec.StoredCond(m2, m1)
		if !ok {
			continue // single direction: mirror is swap-derived, symmetric by construction
		}
		if !core.Equivalent(core.SwapSides(c12), c21) && !spec.IsOriented(m1, m2) {
			report(p, "stored mirror for %s ~ %s is not provably the side swap of this condition; a directed override must be declared `oriented %s ~ %s`", m2, m1, m1, m2)
		}
	}

	// Lattice monotonicity of the SIMPLE strengthening.
	simple := core.StrengthenToSimple(spec)
	for _, p := range spec.OrderedPairs() {
		if !core.Implies(simple.Cond(p[0], p[1]), spec.Cond(p[0], p[1])) {
			report(p, "SIMPLE strengthening is not provably ≤ the original condition; the lattice order is broken")
		}
	}
	// ⊥ must sit below every spec; trivially provable, and a cheap guard
	// against regressions in the default-condition path.
	if !core.Bottom(spec.Sig).LE(spec) {
		report([2]string{"⊥", "spec"}, "bottom specification is not ≤ this spec")
	}
	return out
}

// VetSpecDir parses and vets every .spec file in dir, in name order, and
// returns the findings and the number of files; a missing dir holds
// none. A file that does not read or parse is a finding, so a broken
// spec fails commvet the same way a broken invariant does.
func VetSpecDir(dir string) ([]Finding, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, err
	}
	var out []Finding
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".spec") {
			continue
		}
		n++
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		var spec *core.Spec
		if err == nil {
			spec, err = spectext.Parse(string(data))
		}
		if err != nil {
			out = append(out, Finding{Analyzer: "specvet", Pos: path, Message: err.Error()})
			continue
		}
		for _, f := range VetSpec(e.Name(), spec) {
			f.Pos = filepath.Join(dir, f.Pos)
			out = append(out, f)
		}
	}
	return out, n, nil
}

// illFormed walks a condition's terms against the two method signatures.
func illFormed(c core.Cond, sig1, sig2 core.MethodSig) []string {
	var msgs []string
	var walkTerm func(t core.Term)
	sigFor := func(side core.Side) (core.MethodSig, bool) {
		switch side {
		case core.First:
			return sig1, true
		case core.Second:
			return sig2, true
		}
		return core.MethodSig{}, false
	}
	walkTerm = func(t core.Term) {
		switch x := t.(type) {
		case core.ArgTerm:
			sig, ok := sigFor(x.Side)
			if !ok {
				msgs = append(msgs, fmt.Sprintf("term %s references invalid side %d", x, x.Side))
				return
			}
			if x.Index < 0 || x.Index >= len(sig.Params) {
				msgs = append(msgs, fmt.Sprintf("term %s: method %s has %d argument(s)", x, sig.Name, len(sig.Params)))
			}
		case core.RetTerm:
			sig, ok := sigFor(x.Side)
			if !ok {
				msgs = append(msgs, fmt.Sprintf("term %s references invalid side %d", x, x.Side))
				return
			}
			if !sig.HasRet {
				msgs = append(msgs, fmt.Sprintf("term %s: method %s returns nothing", x, sig.Name))
			}
		case core.ConstTerm:
		case core.FnTerm:
			if _, ok := sigFor(x.State); !ok {
				msgs = append(msgs, fmt.Sprintf("term %s evaluates against invalid state s%d", x, x.State))
			}
			for _, a := range x.Args {
				walkTerm(a)
			}
		case core.ArithTerm:
			walkTerm(x.L)
			walkTerm(x.R)
		}
	}
	var walkCond func(c core.Cond)
	walkCond = func(c core.Cond) {
		switch x := c.(type) {
		case core.TrueCond, core.FalseCond:
		case core.NotCond:
			walkCond(x.C)
		case core.AndCond:
			walkCond(x.L)
			walkCond(x.R)
		case core.OrCond:
			walkCond(x.L)
			walkCond(x.R)
		case core.CmpCond:
			walkTerm(x.L)
			walkTerm(x.R)
		}
	}
	walkCond(c)
	return msgs
}
