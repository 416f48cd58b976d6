package kdtree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// treeModel adapts the kd-tree to core.Model for brute-force validation
// of figure 4's specification.
type treeModel struct {
	pts []Point
}

func (m *treeModel) Clone() core.Model {
	return &treeModel{pts: append([]Point(nil), m.pts...)}
}

func (m *treeModel) Apply(method string, args []core.Value) (core.Value, error) {
	p, ok := args[0].AsVec()
	if !ok {
		return core.Value{}, fmt.Errorf("bad arg %v", args[0])
	}
	switch method {
	case "add":
		for _, q := range m.pts {
			if q == p {
				return core.VBool(false), nil
			}
		}
		m.pts = append(m.pts, p)
		return core.VBool(true), nil
	case "remove":
		for i, q := range m.pts {
			if q == p {
				m.pts = append(m.pts[:i], m.pts[i+1:]...)
				return core.VBool(true), nil
			}
		}
		return core.VBool(false), nil
	case "nearest":
		return core.VVec(bruteNearest(m.pts, p)), nil
	case "contains":
		for _, q := range m.pts {
			if q == p {
				return core.VBool(true), nil
			}
		}
		return core.VBool(false), nil
	default:
		return core.Value{}, fmt.Errorf("unknown method %s", method)
	}
}

func (m *treeModel) StateKey() string {
	pts := append([]Point(nil), m.pts...)
	sort.Slice(pts, func(i, j int) bool { return Less(pts[i], pts[j]) })
	return fmt.Sprint(pts)
}

func (m *treeModel) StateFn(fn string, args []core.Value) (core.Value, error) {
	return Resolve(fn, args)
}

// TestSpecSoundByBruteForce validates figure 4 against the executable
// model per Definition 1, in both orientations, over a grid of small
// point sets (including ties and self-queries).
func TestSpecSoundByBruteForce(t *testing.T) {
	spec := Spec()
	pts := []Point{{0, 0, 0}, {1, 0, 0}, {0, 2, 0}, {3, 3, 0}}
	var states []core.Model
	for mask := 0; mask < 16; mask++ {
		m := &treeModel{}
		for i, p := range pts {
			if mask&(1<<i) != 0 {
				m.pts = append(m.pts, p)
			}
		}
		states = append(states, m)
	}
	var calls []core.Call
	for _, method := range []string{"add", "remove", "nearest", "contains"} {
		for _, p := range pts {
			calls = append(calls, core.Call{Method: method, Args: []core.Value{core.VVec(p)}})
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
	if got := Spec().Classify(); got != core.ClassOnline {
		t.Errorf("figure 4 spec should be ONLINE-CHECKABLE, got %v", got)
	}
}

func variants() map[string]Index {
	return map[string]Index{"kd-ml": NewML(), "kd-gk": NewGK()}
}

// TestSequentialSemantics: one transaction at a time, both variants
// behave like the plain tree.
func TestSequentialSemantics(t *testing.T) {
	for name, idx := range variants() {
		ref := New()
		r := rand.New(rand.NewSource(21))
		for i := 0; i < 300; i++ {
			p := randPoint(r, 5)
			tx := engine.NewTx()
			var err error
			switch r.Intn(3) {
			case 0:
				var got bool
				got, err = idx.Add(tx, p)
				if err == nil && got != ref.Add(p) {
					t.Fatalf("%s: Add(%v) mismatch", name, p)
				}
			case 1:
				var got bool
				got, err = idx.Remove(tx, p)
				if err == nil && got != ref.Remove(p) {
					t.Fatalf("%s: Remove(%v) mismatch", name, p)
				}
			default:
				var got Point
				got, err = idx.Nearest(tx, p)
				if err == nil && got != ref.Nearest(p) {
					t.Fatalf("%s: Nearest(%v) = %v, want %v", name, p, got, ref.Nearest(p))
				}
			}
			if err != nil {
				t.Fatalf("%s: single-tx op conflicted: %v", name, err)
			}
			tx.Commit()
		}
		if idx.Len() != ref.Len() {
			t.Errorf("%s: Len %d vs %d", name, idx.Len(), ref.Len())
		}
	}
}

// TestMLConflictsWhereGKCommutes is the heart of the clustering case
// study: a far-away insertion commutes with an active nearest query
// under the precise spec, but the memory-level variant conflicts at the
// root (its bounding box is written by every insertion).
func TestMLConflictsWhereGKCommutes(t *testing.T) {
	seedPts := []Point{{0, 0, 0}, {1, 0, 0}, {10, 10, 10}, {11, 10, 10}, {5, 5, 5}, {6, 5, 5}, {0, 9, 3}, {2, 7, 1}, {8, 1, 4}}
	far := Point{100, 100, 100}

	ml, gk := NewML(), NewGK()
	ml.Seed(seedPts)
	gk.Seed(seedPts)

	// gk: nearest(0,0,0) → (1,0,0); adding a far point commutes.
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	n, err := gk.Nearest(tx1, Point{0, 0, 0})
	if err != nil || n != (Point{1, 0, 0}) {
		t.Fatalf("gk nearest = %v, %v", n, err)
	}
	if ok, err := gk.Add(tx2, far); err != nil || !ok {
		t.Fatalf("gk far add should commute: %v, %v", ok, err)
	}
	// ...but a nearby insertion that would change the answer conflicts.
	if _, err := gk.Add(tx2, Point{0.1, 0, 0}); !engine.IsConflict(err) {
		t.Fatalf("gk near add should conflict, got %v", err)
	}
	tx2.Abort()
	tx1.Abort()

	// ml: the same far add conflicts with the active nearest because the
	// query read the root whose box the add must write.
	tx3, tx4 := engine.NewTx(), engine.NewTx()
	if _, err := ml.Nearest(tx3, Point{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := ml.Add(tx4, far); !engine.IsConflict(err) {
		t.Fatalf("ml far add should conflict at the root, got %v", err)
	}
	tx4.Abort()
	tx3.Abort()
}

func TestAbortRollsBack(t *testing.T) {
	for name, idx := range variants() {
		idx.Seed([]Point{{1, 1, 1}})
		tx := engine.NewTx()
		if _, err := idx.Add(tx, Point{2, 2, 2}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := idx.Remove(tx, Point{1, 1, 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tx.Abort()
		if idx.Len() != 1 {
			t.Errorf("%s: abort left %d points", name, idx.Len())
		}
		check := engine.NewTx()
		n, err := idx.Nearest(check, Point{0, 0, 0})
		if err != nil || n != (Point{1, 1, 1}) {
			t.Errorf("%s: after abort nearest = %v, %v", name, n, err)
		}
		check.Commit()
	}
}

// TestConcurrentStress: disjoint spatial regions per worker; every
// transaction eventually commits, and the final point count matches.
func TestConcurrentStress(t *testing.T) {
	for name, idx := range variants() {
		var committed sync.Map
		type op struct{ p Point }
		var items []op
		r := rand.New(rand.NewSource(31))
		for w := 0; w < 6; w++ {
			for i := 0; i < 50; i++ {
				items = append(items, op{Point{float64(w*1000 + r.Intn(100)), float64(r.Intn(100)), float64(r.Intn(100))}})
			}
		}
		_, err := engine.RunItems(items, engine.Options{Workers: 6}, func(tx *engine.Tx, o op, _ *engine.Worklist[op]) error {
			ok, err := idx.Add(tx, o.p)
			if err != nil {
				return err
			}
			if ok {
				committed.Store(o.p, true)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := 0
		committed.Range(func(_, _ any) bool { n++; return true })
		if idx.Len() != n {
			t.Errorf("%s: %d points, want %d", name, idx.Len(), n)
		}
	}
}
