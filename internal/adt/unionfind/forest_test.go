package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"

	"commlat/internal/core"
)

// naiveDSU is the reference: an explicit partition map.
type naiveDSU struct {
	rep map[int64]int64 // element -> set representative (max member)
}

func newNaive(n int) *naiveDSU {
	d := &naiveDSU{rep: map[int64]int64{}}
	for i := 0; i < n; i++ {
		d.rep[int64(i)] = int64(i)
	}
	return d
}

func (d *naiveDSU) find(x int64) int64 { return d.rep[x] }

func (d *naiveDSU) union(a, b int64) bool {
	ra, rb := d.rep[a], d.rep[b]
	if ra == rb {
		return false
	}
	l, w := ra, rb
	if rb < ra {
		l, w = rb, ra
	}
	for x, r := range d.rep {
		if r == l {
			d.rep[x] = w
		}
	}
	return true
}

func TestForestMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 24
		fo := NewForest(n)
		na := newNaive(n)
		for i := 0; i < 150; i++ {
			a, b := int64(r.Intn(n)), int64(r.Intn(n))
			if r.Intn(3) == 0 {
				if fo.Union(a, b) != na.union(a, b) {
					t.Logf("seed %d: union(%d,%d) mismatch", seed, a, b)
					return false
				}
			} else {
				if fo.Find(a) != na.find(a) {
					t.Logf("seed %d: find(%d) = %d, want %d", seed, a, fo.Find(a), na.find(a))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestForestStaticPriorityWinner(t *testing.T) {
	f := NewForest(5)
	f.Union(1, 3) // 3 wins (higher priority)
	if f.Find(1) != 3 {
		t.Errorf("Find(1) = %d, want 3", f.Find(1))
	}
	f.Union(3, 0) // rep(3)=3 vs rep(0)=0: 3 wins
	if f.Find(0) != 3 {
		t.Errorf("Find(0) = %d, want 3", f.Find(0))
	}
	if f.Loser(0, 4) != 3 {
		t.Errorf("Loser(0,4) = %d, want 3 (rep 3 < rep 4)", f.Loser(0, 4))
	}
}

func TestForestPathCompression(t *testing.T) {
	f := NewForest(6)
	// Build a chain 0 -> 1 -> ... -> 5 by unioning in ascending order.
	for i := int64(0); i < 5; i++ {
		f.Union(i, i+1)
	}
	// After find(0), 0 must point directly at the root.
	r, ws := f.findW(0, nil)
	if r != 5 {
		t.Fatalf("Find(0) = %d", r)
	}
	if f.parent[0] != 5 {
		t.Error("path not compressed")
	}
	// Revert restores the exact chain; Apply redoes it.
	f.Revert(ws)
	if f.parent[0] == 5 && len(ws) > 0 {
		t.Error("Revert did not restore parents")
	}
	f.Apply(ws)
	if f.parent[0] != 5 {
		t.Error("Apply did not re-compress")
	}
}

func TestForestWriteLists(t *testing.T) {
	f := NewForest(4)
	merged, ws := f.unionW(0, 1, nil)
	if !merged || len(ws) != 1 || ws[0] != (Write{Idx: 0, Old: 0, New: 1}) {
		t.Fatalf("unionW = %v, %v", merged, ws)
	}
	merged, ws = f.unionW(0, 1, nil)
	if merged {
		t.Error("re-union should not merge")
	}
	for _, w := range ws {
		if w.Old == w.New {
			t.Errorf("no-op write journaled: %+v", w)
		}
	}
}

func TestForestGrow(t *testing.T) {
	f := NewForest(2)
	id := f.Grow()
	if id != 2 || f.Len() != 3 || f.Find(2) != 2 {
		t.Errorf("Grow: id=%d len=%d", id, f.Len())
	}
}

func TestForestSets(t *testing.T) {
	f := NewForest(5)
	if f.Sets() != 5 {
		t.Errorf("Sets = %d", f.Sets())
	}
	f.Union(0, 1)
	f.Union(2, 3)
	if f.Sets() != 3 {
		t.Errorf("Sets = %d", f.Sets())
	}
}

// --- spec validation ------------------------------------------------------

// ufModel adapts Forest to core.Model. The abstract state is the
// partition (with representatives derived as max-priority members), so
// path compression is invisible to StateKey — as it must be.
type ufModel struct {
	f *Forest
}

func newModel(n int, unions ...[2]int64) *ufModel {
	m := &ufModel{f: NewForest(n)}
	for _, u := range unions {
		m.f.Union(u[0], u[1])
	}
	return m
}

func (m *ufModel) Clone() core.Model {
	c := NewForest(m.f.Len())
	copy(c.parent, m.f.parent)
	return &ufModel{f: c}
}

func (m *ufModel) Apply(method string, args []core.Value) (core.Value, error) {
	switch method {
	case "find":
		return core.VInt(m.f.Find(args[0].Int())), nil
	case "union":
		m.f.Union(args[0].Int(), args[1].Int())
		return core.Value{}, nil
	default:
		return core.Value{}, core.ErrUnknownFn(method)
	}
}

func (m *ufModel) StateKey() string {
	key := make([]byte, 0, m.f.Len()*3)
	for i := 0; i < m.f.Len(); i++ {
		r := m.f.FindNoCompress(int64(i))
		key = append(key, byte(r), ';')
	}
	return string(key)
}

func (m *ufModel) StateFn(fn string, args []core.Value) (core.Value, error) {
	return Resolver(m.f)(fn, args)
}

// TestSpecSoundByBruteForce validates figure 5 (static-priority reading)
// against the executable model with path compression enabled, in both
// orientations.
func TestSpecSoundByBruteForce(t *testing.T) {
	spec := Spec()
	states := []core.Model{
		newModel(5),
		newModel(5, [2]int64{0, 1}),
		newModel(5, [2]int64{0, 1}, [2]int64{2, 3}),
		newModel(5, [2]int64{0, 1}, [2]int64{1, 2}),
		newModel(5, [2]int64{3, 4}, [2]int64{0, 4}),
	}
	var calls []core.Call
	for a := int64(0); a < 5; a++ {
		calls = append(calls, core.Call{Method: "find", Args: []core.Value{core.V(a)}})
		for b := int64(0); b < 5; b++ {
			if a != b {
				calls = append(calls, core.Call{Method: "union", Args: []core.Value{core.V(a), core.V(b)}})
			}
		}
	}
	bad, err := core.CheckCondSound(spec, states, calls)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bad {
		t.Errorf("violation: %s", v)
	}
}

func TestSpecClassification(t *testing.T) {
	if got := Spec().Classify(); got != core.ClassGeneral {
		t.Errorf("figure 5 spec should be GENERAL, got %v", got)
	}
}

// TestBumpingRankSpecUnsound documents the substitution: with classic
// tie-bumping union-by-rank, figure 5's literal conditions admit a
// non-commuting pair, which is why this package uses static priorities.
func TestBumpingRankSpecUnsound(t *testing.T) {
	// Model with rank bumping.
	type bm struct {
		parent, rank []int64
	}
	clone := func(m *bm) *bm {
		return &bm{parent: append([]int64(nil), m.parent...), rank: append([]int64(nil), m.rank...)}
	}
	rep := func(m *bm, x int64) int64 {
		for m.parent[x] != x {
			x = m.parent[x]
		}
		return x
	}
	union := func(m *bm, a, b int64) {
		ra, rb := rep(m, a), rep(m, b)
		if ra == rb {
			return
		}
		l, w := ra, rb
		if m.rank[rb] < m.rank[ra] {
			l, w = rb, ra
		}
		if m.rank[ra] == m.rank[rb] {
			m.rank[w]++
		}
		m.parent[l] = w
	}
	loser := func(m *bm, a, b int64) int64 {
		ra, rb := rep(m, a), rep(m, b)
		if m.rank[ra] < m.rank[rb] {
			return ra
		}
		return rb
	}

	// State: {0,1} merged (root 0, rank 1), {2}, {3} singletons.
	m0 := &bm{parent: []int64{0, 0, 2, 3}, rank: []int64{1, 0, 0, 0}}
	// u1 = union(2,3); u2 = union(2,1). Figure 5's condition (1) holds:
	// rep(s1,2)=2 and rep(s1,1)=0, neither equals loser(s1,2,3)=3.
	if l := loser(m0, 2, 3); l != 3 {
		t.Fatalf("setup: loser = %d", l)
	}
	if rep(m0, 2) == 3 || rep(m0, 1) == 3 {
		t.Fatal("setup: condition should hold")
	}
	// Order A: u1 then u2; order B: u2 then u1. A later find observes
	// different representatives, so the pair does not commute.
	a := clone(m0)
	union(a, 2, 3)
	union(a, 2, 1)
	b := clone(m0)
	union(b, 2, 1)
	union(b, 2, 3)
	if rep(a, 2) == rep(b, 2) {
		t.Skip("rank-bumping counterexample no longer applies")
	}
	// Reaching here demonstrates the unsoundness the substitution avoids.
}
