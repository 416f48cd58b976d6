package intset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"commlat/internal/abslock"
	"commlat/internal/core"
)

// model adapts the set to core.Model for brute-force spec validation.
type model struct {
	rep Rep
}

func newModel(rep Rep, vals ...int64) *model {
	for _, v := range vals {
		rep.Add(v)
	}
	return &model{rep: rep}
}

func (m *model) Clone() core.Model {
	c := NewHashRep()
	for _, v := range m.rep.Elems() {
		c.Add(v)
	}
	return &model{rep: c}
}

func (m *model) Apply(method string, args []core.Value) (core.Value, error) {
	x := args[0].Int()
	switch method {
	case "add":
		return core.VBool(m.rep.Add(x)), nil
	case "remove":
		return core.VBool(m.rep.Remove(x)), nil
	case "contains":
		return core.VBool(m.rep.Contains(x)), nil
	default:
		return core.Value{}, fmt.Errorf("unknown method %s", method)
	}
}

func (m *model) StateKey() string { return fmt.Sprint(m.rep.Elems()) }

func (m *model) StateFn(fn string, args []core.Value) (core.Value, error) {
	if fn == PartitionKey {
		return core.VInt(Partition(args[0].Int(), 2)), nil
	}
	return core.Value{}, fmt.Errorf("unknown fn %s", fn)
}

func allCalls(vals ...int64) []core.Call {
	var out []core.Call
	for _, m := range []string{"add", "remove", "contains"} {
		for _, v := range vals {
			out = append(out, core.Call{Method: m, Args: []core.Value{core.V(v)}})
		}
	}
	return out
}

func states() []core.Model {
	return []core.Model{
		newModel(NewHashRep()),
		newModel(NewHashRep(), 1),
		newModel(NewHashRep(), 1, 2),
		newModel(NewHashRep(), 2, 3),
	}
}

// TestAllSpecsSound brute-forces every shipped set specification against
// the executable model (Definition 1, both orientations).
func TestAllSpecsSound(t *testing.T) {
	specs := map[string]*core.Spec{
		"precise":     PreciseSpec(),
		"rw":          RWSpec(),
		"exclusive":   ExclusiveSpec(),
		"partitioned": PartitionedSpec(),
		"bottom":      BottomSpec(),
	}
	for name, spec := range specs {
		bad, err := core.CheckCondSound(spec, states(), allCalls(1, 2, 3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range bad {
			t.Errorf("%s: %s", name, v)
		}
	}
}

// TestSpecLatticeChain verifies the lattice ordering the paper's §4 uses
// to derive detectors: ⊥ ≤ exclusive ≤ rw ≤ precise, partitioned ≤ rw.
func TestSpecLatticeChain(t *testing.T) {
	bot, ex, rw, pr, part := BottomSpec(), ExclusiveSpec(), RWSpec(), PreciseSpec(), PartitionedSpec()
	chain := []struct {
		name string
		lo   *core.Spec
		hi   *core.Spec
	}{
		{"bottom ≤ exclusive", bot, ex},
		{"exclusive ≤ rw", ex, rw},
		{"rw ≤ precise", rw, pr},
		{"partitioned ≤ rw", part, rw},
		{"bottom ≤ precise", bot, pr},
	}
	for _, c := range chain {
		if !c.lo.LE(c.hi) {
			t.Errorf("%s failed", c.name)
		}
		if c.hi.LE(c.lo) {
			t.Errorf("%s should be strict", c.name)
		}
	}
}

// figure3 is figure 3 spelled by hand, the reference RWSpec's pipeline
// must reproduce.
func figure3() *core.Spec {
	ne := core.Ne(core.Arg1(0), core.Arg2(0))
	s := core.NewSpec(Sig())
	s.Set("add", "add", ne)
	s.Set("add", "remove", ne)
	s.Set("add", "contains", ne)
	s.Set("remove", "remove", ne)
	s.Set("remove", "contains", ne)
	s.Set("contains", "contains", core.True())
	return s
}

// TestPipelinesMatchHandSpellings: RWSpec, ExclusiveSpec and
// PartitionedSpec are §4 moves from PreciseSpec; each sits at the same
// lattice point as its hand spelling and synthesizes the same scheme.
func TestPipelinesMatchHandSpellings(t *testing.T) {
	ex := figure3().Set("contains", "contains", core.Ne(core.Arg1(0), core.Arg2(0)))
	part, err := figure3().PartitionSpec(PartitionKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want *core.Spec
	}{
		{"rw", RWSpec(), figure3()},
		{"ex", ExclusiveSpec(), ex},
		{"part", PartitionedSpec(), part},
	} {
		if !c.got.LE(c.want) || !c.want.LE(c.got) {
			t.Errorf("%s: pipeline\n%s\nis not the hand spelling\n%s", c.name, c.got, c.want)
		}
		got, err1 := abslock.Synthesize(c.got)
		want, err2 := abslock.Synthesize(c.want)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", c.name, err1, err2)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got.Reduce(), want.Reduce()) {
			t.Errorf("%s: synthesized schemes differ:\n%s\n%s", c.name, got.MatrixString(), want.MatrixString())
		}
	}
	// The strengthening is computed once; what RWSpec returns is a copy.
	RWSpec().Set("contains", "contains", core.False())
	if _, ok := RWSpec().Cond("contains", "contains").(core.TrueCond); !ok {
		t.Error("a caller's Set on RWSpec's result leaked into the next call")
	}
}

func TestSpecClasses(t *testing.T) {
	if got := PreciseSpec().Classify(); got != core.ClassOnline {
		t.Errorf("precise class = %v", got)
	}
	for name, s := range map[string]*core.Spec{
		"rw": RWSpec(), "exclusive": ExclusiveSpec(), "bottom": BottomSpec(),
	} {
		if got := s.Classify(); got != core.ClassSimple {
			t.Errorf("%s class = %v", name, got)
		}
	}
}

// TestRepsAgree is a property test: both representations implement the
// same abstract set.
func TestRepsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, s := NewHashRep(), NewSortedRep()
		ref := map[int64]bool{}
		for i := 0; i < 200; i++ {
			x := int64(r.Intn(20))
			switch r.Intn(3) {
			case 0:
				want := !ref[x]
				ref[x] = true
				if h.Add(x) != want || s.Add(x) != want {
					return false
				}
			case 1:
				want := ref[x]
				delete(ref, x)
				if h.Remove(x) != want || s.Remove(x) != want {
					return false
				}
			default:
				if h.Contains(x) != ref[x] || s.Contains(x) != ref[x] {
					return false
				}
			}
			if h.Len() != len(ref) || s.Len() != len(ref) {
				return false
			}
		}
		he, se := h.Elems(), s.Elems()
		if len(he) != len(se) {
			return false
		}
		for i := range he {
			if he[i] != se[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPartition(t *testing.T) {
	if Partition(7, 4) != 3 || Partition(-1, 4) != 3 || Partition(8, 4) != 0 {
		t.Errorf("Partition wrong: %d %d %d", Partition(7, 4), Partition(-1, 4), Partition(8, 4))
	}
}

func TestSortedRepOrdering(t *testing.T) {
	s := NewSortedRep()
	for _, x := range []int64{5, 1, 3, 2, 4, 3} {
		s.Add(x)
	}
	want := []int64{1, 2, 3, 4, 5}
	got := s.Elems()
	if len(got) != len(want) {
		t.Fatalf("Elems = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v", got)
		}
	}
}
