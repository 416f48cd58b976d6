package abslock_test

import (
	"testing"

	"commlat/internal/abslock"
	"commlat/internal/adt/flowgraph"
	"commlat/internal/adt/intset"
	"commlat/internal/core"
)

// TestCoversMatchesRowInclusion checks the precomputed cover masks
// against their definition — held covers want iff want's incompatibility
// row is a subset of held's — on the schemes the applications run, and
// pins the shape the read/write graph scheme is expected to have.
func TestCoversMatchesRowInclusion(t *testing.T) {
	simple := func(spec *core.Spec) *abslock.Scheme {
		s, err := abslock.Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s.Reduce()
	}
	partKeys := map[string]abslock.KeyFunc{
		flowgraph.PartKey: func(v core.Value) uint64 { return uint64(v.Int() % 32) },
	}
	schemes := map[string]struct {
		s    *abslock.Scheme
		keys map[string]abslock.KeyFunc
	}{
		"flowgraph rw":          {simple(flowgraph.RWSpec()), nil},
		"flowgraph exclusive":   {simple(flowgraph.ExclusiveSpec()), nil},
		"flowgraph partitioned": {simple(flowgraph.PartitionedSpec()), partKeys},
		"set rw":                {simple(intset.RWSpec()), nil},
	}
	for name, sc := range schemes {
		m := abslock.NewManager(sc.s, sc.keys)
		n := len(sc.s.Modes)
		for held := 0; held < n; held++ {
			for want := 0; want < n; want++ {
				subset := true
				for k := 0; k < n; k++ {
					if sc.s.Incompat[want][k] && !sc.s.Incompat[held][k] {
						subset = false
					}
				}
				if got := m.Covers(held, want); got != subset {
					t.Errorf("%s: Covers(held %s, want %s) = %v, row inclusion says %v",
						name, sc.s.Modes[held], sc.s.Modes[want], got, subset)
				}
			}
		}
	}

	// Read/write node locks: the three read modes cover each other, each
	// write mode covers all six, and no read mode covers a write mode.
	rw := schemes["flowgraph rw"].s
	m := abslock.NewManager(rw, nil)
	isWrite := func(i int) bool { return rw.Modes[i].Method == "relabel" || rw.Modes[i].Method == "pushFlow" }
	if len(rw.Modes) != 6 {
		t.Fatalf("reduced rw scheme has %d modes %v, want 6", len(rw.Modes), rw.ModeNames())
	}
	for held := range rw.Modes {
		for want := range rw.Modes {
			if exp := isWrite(held) || !isWrite(want); m.Covers(held, want) != exp {
				t.Errorf("rw: Covers(held %s, want %s) = %v, want %v", rw.Modes[held], rw.Modes[want], !exp, exp)
			}
		}
	}
}
