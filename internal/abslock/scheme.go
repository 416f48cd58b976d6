// Package abslock implements the paper's abstract-locking conflict
// detection scheme (§3.2): the synthesis algorithm that turns a SIMPLE
// commutativity specification into lock modes, an acquisition discipline
// and a mode-compatibility matrix (Theorem 1), the reduction that deletes
// superfluous modes (figure 8a → 8b), and the runtime multi-mode lock
// manager that enforces a synthesized scheme.
package abslock

import (
	"fmt"
	"sort"
	"strings"

	"commlat/internal/core"
)

// Mode is an abstract lock mode. Every method contributes one mode for
// its access to the data structure as a whole (Slot == "ds") and one mode
// per data member it touches (its arguments and return value). Keyed
// modes (Key != "") come from partition-style specifications: the lock is
// taken on Key(value) rather than the value itself (§4.2).
type Mode struct {
	Method string
	Slot   string // "ds", an argument slot name, or "ret"
	Key    string // "" for identity; otherwise a pure key function
}

func (m Mode) String() string {
	s := m.Method + ":" + m.Slot
	if m.Key != "" {
		s += "@" + m.Key
	}
	return s
}

// Target says which datum an acquisition locks.
type Target int

// Acquisition targets.
const (
	TargetDS  Target = iota // the whole-structure lock
	TargetArg               // an argument value (locked before execution)
	TargetRet               // the return value (locked after execution)
)

// Acquisition is one lock acquisition a method performs.
type Acquisition struct {
	Mode   int // index into Scheme.Modes
	Target Target
	Arg    int    // argument index when Target == TargetArg
	Key    string // pure key function applied to the value, "" = identity

	// Liberal locking (SynthesizeLiberal, the footnote-6 extension):
	// when Guard is non-nil it is a predicate over the invoking
	// invocation's own arguments and return value (bound as invocation
	// 1); if it evaluates true, WeakMode is acquired instead of Mode.
	Guard    core.Cond
	WeakMode int
	// After schedules the acquisition after execution — required when
	// the guard (or the target) needs the return value.
	After bool
}

// Scheme is a synthesized abstract-locking conflict detector.
type Scheme struct {
	ADT      string
	Modes    []Mode
	Incompat [][]bool                 // Incompat[i][j]: modes i and j conflict
	Acquire  map[string][]Acquisition // per method
}

// Synthesize constructs the sound and complete abstract-locking scheme
// for a SIMPLE specification, following the three-step procedure of
// §3.2: (1) one mode per method/slot, (2) every method acquires its ds
// lock and slot locks in its own modes, (3) the compatibility matrix is
// derived from the specification — false conditions make the ds modes
// incompatible, and each disequality conjunct x ≠ y makes modes m1:x and
// m2:y incompatible. Conditions may use pure key functions registered on
// the spec (partitioned specifications); anything else returns an error,
// which is Theorem 1's "no sound and complete abstract locking scheme
// exists" case.
//
// Lock acquisition is direction-blind (a lock table cannot know which of
// two live invocations "came first"), so when a pair's two directed
// conditions differ — an asymmetric self-pair condition, or a directed
// override — the synthesized scheme implements their *symmetrized meet*:
// it allows a pair of invocations iff both directed conditions hold.
// Since commutation itself is a symmetric relation, any valid
// specification's precise point is symmetric, and for symmetric
// specifications this is exactly Theorem 1's sound-and-complete scheme.
func Synthesize(spec *core.Spec) (*Scheme, error) {
	s := &Scheme{ADT: spec.Sig.Name, Acquire: map[string][]Acquisition{}}
	modeIdx := map[Mode]int{}
	addMode := func(m Mode) int {
		if i, ok := modeIdx[m]; ok {
			return i
		}
		i := len(s.Modes)
		s.Modes = append(s.Modes, m)
		modeIdx[m] = i
		return i
	}

	// Step 1+2: modes and acquisitions for every method's ds and slots.
	for _, ms := range spec.Sig.Methods {
		ds := addMode(Mode{Method: ms.Name, Slot: "ds"})
		s.Acquire[ms.Name] = append(s.Acquire[ms.Name], Acquisition{Mode: ds, Target: TargetDS})
		for i, p := range ms.Params {
			mi := addMode(Mode{Method: ms.Name, Slot: p})
			s.Acquire[ms.Name] = append(s.Acquire[ms.Name], Acquisition{Mode: mi, Target: TargetArg, Arg: i})
		}
		if ms.HasRet {
			mi := addMode(Mode{Method: ms.Name, Slot: "ret"})
			s.Acquire[ms.Name] = append(s.Acquire[ms.Name], Acquisition{Mode: mi, Target: TargetRet})
		}
	}

	// Keyed modes are added lazily as conjuncts demand them.
	slotMode := func(method string, slot core.SlotRef, key string) (int, error) {
		ms, _ := spec.Sig.Method(method)
		var name string
		var acq Acquisition
		if slot.IsRet {
			if !ms.HasRet {
				return 0, fmt.Errorf("abslock: %s has no return value", method)
			}
			name = "ret"
			acq = Acquisition{Target: TargetRet, Key: key}
		} else {
			if slot.Arg >= len(ms.Params) {
				return 0, fmt.Errorf("abslock: %s has no argument %d", method, slot.Arg)
			}
			name = ms.Params[slot.Arg]
			acq = Acquisition{Target: TargetArg, Arg: slot.Arg, Key: key}
		}
		m := Mode{Method: method, Slot: name, Key: key}
		if i, ok := modeIdx[m]; ok {
			return i, nil
		}
		i := addMode(m)
		acq.Mode = i
		s.Acquire[method] = append(s.Acquire[method], acq)
		return i, nil
	}

	// Step 3: compatibility matrix (grown as keyed modes appear).
	grow := func() {
		for len(s.Incompat) < len(s.Modes) {
			s.Incompat = append(s.Incompat, make([]bool, 0))
		}
		for i := range s.Incompat {
			for len(s.Incompat[i]) < len(s.Modes) {
				s.Incompat[i] = append(s.Incompat[i], false)
			}
		}
	}
	grow()

	for _, p := range spec.OrderedPairs() {
		m1, m2 := p[0], p[1]
		cond := spec.Cond(m1, m2)
		form, ok := core.AsSimple(cond, spec.Pure)
		if !ok {
			return nil, fmt.Errorf("abslock: condition for (%s,%s) is not SIMPLE: %s (Theorem 1: no sound and complete abstract locking scheme exists)", m1, m2, cond)
		}
		switch form.Kind {
		case core.SimpleTrue:
			// Rule 3: compatible by default.
		case core.SimpleFalse:
			// Rule 1: the ds modes are incompatible.
			i := modeIdx[Mode{Method: m1, Slot: "ds"}]
			j := modeIdx[Mode{Method: m2, Slot: "ds"}]
			s.Incompat[i][j] = true
			s.Incompat[j][i] = true
		case core.SimpleConj:
			// Rule 2: each conjunct x ≠ y makes m1:x and m2:y incompatible.
			for _, cj := range form.Conjuncts {
				i, err := slotMode(m1, cj.X, cj.Key)
				if err != nil {
					return nil, err
				}
				j, err := slotMode(m2, cj.Y, cj.Key)
				if err != nil {
					return nil, err
				}
				grow()
				s.Incompat[i][j] = true
				s.Incompat[j][i] = true
			}
		}
	}
	grow()
	return s, nil
}

// Reduce removes superfluous modes: a mode compatible with every mode
// (including itself) can never cause a conflict, so acquiring it is pure
// overhead (§3.2's optimization, figure 8a → 8b). The result is a new
// scheme; the receiver is unchanged.
func (s *Scheme) Reduce() *Scheme {
	keep := make([]bool, len(s.Modes))
	for i := range s.Modes {
		for j := range s.Modes {
			if s.Incompat[i][j] {
				keep[i] = true
				break
			}
		}
	}
	remap := make([]int, len(s.Modes))
	out := &Scheme{ADT: s.ADT, Acquire: map[string][]Acquisition{}}
	for i, k := range keep {
		if k {
			remap[i] = len(out.Modes)
			out.Modes = append(out.Modes, s.Modes[i])
		} else {
			remap[i] = -1
		}
	}
	out.Incompat = make([][]bool, len(out.Modes))
	for i := range out.Incompat {
		out.Incompat[i] = make([]bool, len(out.Modes))
	}
	for i := range s.Modes {
		if remap[i] < 0 {
			continue
		}
		for j := range s.Modes {
			if remap[j] >= 0 && s.Incompat[i][j] {
				out.Incompat[remap[i]][remap[j]] = true
			}
		}
	}
	for m, acqs := range s.Acquire {
		for _, a := range acqs {
			if remap[a.Mode] < 0 {
				continue
			}
			a.Mode = remap[a.Mode]
			if a.Guard != nil {
				// Guarded mode pairs survive together by construction
				// (each weak mode is incompatible with its counterpart's
				// strong mode, so neither is ever superfluous).
				if remap[a.WeakMode] < 0 {
					continue
				}
				a.WeakMode = remap[a.WeakMode]
			}
			out.Acquire[m] = append(out.Acquire[m], a)
		}
	}
	return out
}

// ModeIndex finds a mode by its rendered name (e.g. "inc:ds"); it returns
// -1 when absent. Intended for tests and diagnostics.
func (s *Scheme) ModeIndex(name string) int {
	for i, m := range s.Modes {
		if m.String() == name {
			return i
		}
	}
	return -1
}

// MatrixString renders the compatibility matrix in the style of figure 8:
// ✓ for compatible pairs, × for incompatible ones.
func (s *Scheme) MatrixString() string {
	names := make([]string, len(s.Modes))
	width := 0
	for i, m := range s.Modes {
		names[i] = m.String()
		if len(names[i]) > width {
			width = len(names[i])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s", width+2, "")
	for _, n := range names {
		fmt.Fprintf(&b, " %*s", width, n)
	}
	b.WriteByte('\n')
	for i, n := range names {
		fmt.Fprintf(&b, "%*s |", width, n)
		for j := range names {
			mark := "v"
			if s.Incompat[i][j] {
				mark = "x"
			}
			fmt.Fprintf(&b, " %*s", width, mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ModeNames returns the rendered mode names, sorted, for golden tests.
func (s *Scheme) ModeNames() []string {
	out := make([]string, len(s.Modes))
	for i, m := range s.Modes {
		out[i] = m.String()
	}
	sort.Strings(out)
	return out
}
