package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// bruteNearest is the reference nearest query: linear scan with the same
// deterministic tie-break.
func bruteNearest(pts []Point, q Point) Point {
	best, bestD := None, math.Inf(1)
	for _, p := range pts {
		if p == q {
			continue
		}
		if d := DistSq(q, p); closer(p, d, best, bestD) {
			best, bestD = p, d
		}
	}
	return best
}

func randPoint(r *rand.Rand, grid int) Point {
	// A small grid makes duplicates and ties likely, stressing the
	// deterministic tie-break and duplicate handling.
	return Point{float64(r.Intn(grid)), float64(r.Intn(grid)), float64(r.Intn(grid))}
}

func TestTreeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New()
		ref := map[Point]bool{}
		for i := 0; i < 400; i++ {
			p := randPoint(r, 6)
			switch r.Intn(4) {
			case 0, 1:
				want := !ref[p]
				ref[p] = true
				if tr.Add(p) != want {
					t.Logf("seed %d: Add(%v) mismatch", seed, p)
					return false
				}
			case 2:
				want := ref[p]
				delete(ref, p)
				if tr.Remove(p) != want {
					t.Logf("seed %d: Remove(%v) mismatch", seed, p)
					return false
				}
			default:
				var pts []Point
				for q := range ref {
					pts = append(pts, q)
				}
				want := bruteNearest(pts, p)
				if got := tr.Nearest(p); got != want {
					t.Logf("seed %d: Nearest(%v) = %v, want %v (set %v)", seed, p, got, want, pts)
					return false
				}
			}
			if tr.Len() != len(ref) {
				t.Logf("seed %d: Len %d vs %d", seed, tr.Len(), len(ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTreeLargeUniform(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tr := New()
	var pts []Point
	for i := 0; i < 3000; i++ {
		p := Point{r.Float64(), r.Float64(), r.Float64()}
		if tr.Add(p) {
			pts = append(pts, p)
		}
	}
	for i := 0; i < 100; i++ {
		q := Point{r.Float64(), r.Float64(), r.Float64()}
		if got, want := tr.Nearest(q), bruteNearest(pts, q); got != want {
			t.Fatalf("Nearest(%v) = %v, want %v", q, got, want)
		}
	}
	// Remove half and re-check.
	for i := 0; i < len(pts)/2; i++ {
		if !tr.Remove(pts[i]) {
			t.Fatalf("Remove(%v) failed", pts[i])
		}
	}
	rest := pts[len(pts)/2:]
	for i := 0; i < 100; i++ {
		q := rest[r.Intn(len(rest))]
		if got, want := tr.Nearest(q), bruteNearest(rest, q); got != want {
			t.Fatalf("after removals Nearest(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestNearestExcludesSelf(t *testing.T) {
	tr := New()
	tr.Add(Point{1, 1, 1})
	if got := tr.Nearest(Point{1, 1, 1}); !got.IsNone() {
		t.Errorf("singleton nearest = %v, want ∞ (the paper's convention)", got)
	}
	tr.Add(Point{2, 2, 2})
	if got := tr.Nearest(Point{1, 1, 1}); got != (Point{2, 2, 2}) {
		t.Errorf("nearest = %v", got)
	}
}

func TestNearestEmpty(t *testing.T) {
	if got := New().Nearest(Point{0, 0, 0}); !got.IsNone() {
		t.Errorf("empty nearest = %v", got)
	}
}

func TestNearestTieBreak(t *testing.T) {
	tr := New()
	tr.Add(Point{1, 0, 0})
	tr.Add(Point{-1, 0, 0})
	tr.Add(Point{0, 1, 0})
	tr.Add(Point{0, -1, 0})
	// All four are at distance 1 from the origin: the lexicographically
	// smallest must win.
	if got := tr.Nearest(Point{0, 0, 0}); got != (Point{-1, 0, 0}) {
		t.Errorf("tie-break picked %v", got)
	}
}

func TestDuplicateAdd(t *testing.T) {
	tr := New()
	p := Point{3, 4, 5}
	if !tr.Add(p) || tr.Add(p) {
		t.Error("duplicate add should return false")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	if !tr.Remove(p) || tr.Remove(p) {
		t.Error("double remove should return false")
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestBoxInvariant(t *testing.T) {
	// Every node's box must exactly bound its subtree's points, even
	// through splits, removals and collapses.
	r := rand.New(rand.NewSource(13))
	tr := New()
	var live []Point
	for i := 0; i < 500; i++ {
		p := randPoint(r, 5)
		if r.Intn(3) != 0 {
			if tr.Add(p) {
				live = append(live, p)
			}
		} else if tr.Remove(p) {
			for j, q := range live {
				if q == p {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
		}
		checkBoxes(t, tr.root)
	}
}

func checkBoxes(t *testing.T, n *node) (Box, int) {
	t.Helper()
	if n == nil {
		return emptyBox, 0
	}
	if n.leaf {
		want := emptyBox
		for _, p := range n.pts {
			want = want.Extend(p)
		}
		if n.box != want || n.count != len(n.pts) {
			t.Fatalf("leaf box/count wrong: %+v vs %+v (%d pts)", n.box, want, len(n.pts))
		}
		return n.box, n.count
	}
	lb, lc := checkBoxes(t, n.left)
	rb, rc := checkBoxes(t, n.right)
	if lc == 0 || rc == 0 {
		t.Fatal("interior node with empty child survived")
	}
	if want := lb.Union(rb); n.box != want {
		t.Fatalf("interior box wrong: %+v vs %+v", n.box, want)
	}
	if n.count != lc+rc {
		t.Fatalf("interior count wrong: %d vs %d", n.count, lc+rc)
	}
	return n.box, n.count
}

func TestBoxMinDist(t *testing.T) {
	b := emptyBox.Extend(Point{0, 0, 0}).Extend(Point{2, 2, 2})
	if d := b.MinDistSq(Point{1, 1, 1}); d != 0 {
		t.Errorf("inside point dist = %v", d)
	}
	if d := b.MinDistSq(Point{3, 2, 2}); d != 1 {
		t.Errorf("outside dist = %v, want 1", d)
	}
	if d := b.MinDistSq(Point{3, 3, 2}); d != 2 {
		t.Errorf("corner dist = %v, want 2", d)
	}
}

func TestPointsRoundTrip(t *testing.T) {
	tr := New()
	in := []Point{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {0, 0, 0}}
	for _, p := range in {
		tr.Add(p)
	}
	out := tr.Points()
	sort.Slice(out, func(i, j int) bool { return Less(out[i], out[j]) })
	sort.Slice(in, func(i, j int) bool { return Less(in[i], in[j]) })
	if len(out) != len(in) {
		t.Fatalf("Points = %v", out)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("Points = %v, want %v", out, in)
		}
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		seen := map[Point]bool{}
		var pts []Point
		for len(pts) < 200 {
			p := randPoint(r, 7)
			if !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
		tr := Build(pts)
		if tr.Len() != len(pts) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(pts))
		}
		checkBoxes(t, tr.root)
		for i := 0; i < 50; i++ {
			q := randPoint(r, 8)
			if got, want := tr.Nearest(q), bruteNearest(pts, q); got != want {
				t.Fatalf("Nearest(%v) = %v, want %v", q, got, want)
			}
		}
		// Mutations on a built tree keep working.
		for i := 0; i < 40; i++ {
			p := pts[r.Intn(len(pts))]
			if tr.Contains(p) != true {
				t.Fatalf("Contains(%v) = false", p)
			}
		}
		removed := pts[:50]
		for _, p := range removed {
			if !tr.Remove(p) {
				t.Fatalf("Remove(%v) failed", p)
			}
		}
		checkBoxes(t, tr.root)
		rest := pts[50:]
		for i := 0; i < 30; i++ {
			q := rest[r.Intn(len(rest))]
			if got, want := tr.Nearest(q), bruteNearest(rest, q); got != want {
				t.Fatalf("after removals Nearest(%v) = %v, want %v", q, got, want)
			}
		}
	}
}

// refBuildNode is the bulk load Build replaced, kept as its reference:
// sort every sub-slice on each candidate axis, walk the midpoint off a
// run of equal coordinates, copy each half.
func refBuildNode(pts []Point) *node {
	box := emptyBox
	for _, p := range pts {
		box = box.Extend(p)
	}
	if len(pts) <= leafCap {
		return &node{leaf: true, pts: pts, box: box, count: len(pts)}
	}
	type axisWidth struct {
		axis  int
		width float64
	}
	axes := []axisWidth{}
	for i := 0; i < 3; i++ {
		axes = append(axes, axisWidth{axis: i, width: box.Max[i] - box.Min[i]})
	}
	sort.SliceStable(axes, func(i, j int) bool { return axes[i].width > axes[j].width })
	for _, aw := range axes {
		axis := aw.axis
		if aw.width == 0 {
			continue
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i][axis] < pts[j][axis] })
		mid := len(pts) / 2
		for mid < len(pts) && pts[mid][axis] == pts[mid-1][axis] {
			mid++
		}
		if mid == len(pts) {
			mid = len(pts) / 2
			for mid > 1 && pts[mid][axis] == pts[mid-1][axis] {
				mid--
			}
			if mid <= 0 || pts[mid][axis] == pts[mid-1][axis] {
				continue
			}
		}
		return &node{
			axis:  axis,
			split: pts[mid][axis],
			left:  refBuildNode(append([]Point(nil), pts[:mid]...)),
			right: refBuildNode(append([]Point(nil), pts[mid:]...)),
			box:   box,
			count: len(pts),
		}
	}
	return &node{leaf: true, pts: pts, box: box, count: len(pts)}
}

// sameShape reports the first difference between two subtrees: axis,
// split, count and box at every node, and the same points (in any order)
// in every leaf — and a leaf of got (Build's side) whose window could
// grow into its neighbour's points.
func sameShape(got, want *node, path string) string {
	switch {
	case got == nil || want == nil:
		if got != want {
			return path + ": one side is empty"
		}
		return ""
	case got.leaf != want.leaf || got.count != want.count || got.box != want.box:
		return fmt.Sprintf("%s: leaf/count/box = %v/%d/%v, want %v/%d/%v", path,
			got.leaf, got.count, got.box, want.leaf, want.count, want.box)
	case got.leaf:
		if cap(got.pts) != len(got.pts) {
			return fmt.Sprintf("%s: leaf window of %d points has capacity %d", path, len(got.pts), cap(got.pts))
		}
		g, w := append([]Point(nil), got.pts...), append([]Point(nil), want.pts...)
		sort.Slice(g, func(i, j int) bool { return Less(g[i], g[j]) })
		sort.Slice(w, func(i, j int) bool { return Less(w[i], w[j]) })
		if !slices.Equal(g, w) {
			return fmt.Sprintf("%s: leaf holds %v, want %v", path, g, w)
		}
		return ""
	case got.axis != want.axis || got.split != want.split:
		return fmt.Sprintf("%s: split %d@%v, want %d@%v", path, got.axis, got.split, want.axis, want.split)
	}
	if d := sameShape(got.left, want.left, path+"L"); d != "" {
		return d
	}
	return sameShape(got.right, want.right, path+"R")
}

// TestBuildMatchesSortReference: selection must reproduce the sort-built
// tree node for node — on uniform floats, on a grid where most
// coordinates tie (duplicates included), and on inputs flat along one
// or two axes, at the sizes where the leaf rule and the midpoint rule
// change.
func TestBuildMatchesSortReference(t *testing.T) {
	gens := []struct {
		name string
		gen  func(r *rand.Rand) Point
	}{
		{"uniform", func(r *rand.Rand) Point { return Point{r.Float64(), r.Float64(), r.Float64()} }},
		{"grid7", func(r *rand.Rand) Point { return randPoint(r, 7) }},
		{"flat-z", func(r *rand.Rand) Point { return Point{float64(r.Intn(40)), r.Float64(), 3} }},
		{"flat-yz", func(r *rand.Rand) Point { return Point{float64(r.Intn(25)), 2, 3} }},
	}
	sizes := []int{0, 1, leafCap, leafCap + 1}
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 1000; trial++ {
		g := gens[trial%len(gens)]
		n := 2 + r.Intn(300)
		if trial < len(gens)*len(sizes) {
			n = sizes[trial/len(gens)]
		} else if trial >= 1000-2*len(gens) {
			n = 5000
		}
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = g.gen(r)
		}
		in := append([]Point(nil), pts...)
		got := Build(pts)
		if !slices.Equal(pts, in) {
			t.Fatalf("%s n=%d: Build reordered its argument", g.name, n)
		}
		var want *node
		if n > 0 {
			want = refBuildNode(append([]Point(nil), pts...))
		}
		if d := sameShape(got.root, want, "root"); d != "" {
			t.Fatalf("%s n=%d (trial %d): %s", g.name, n, trial, d)
		}
	}
}

// TestBuildLeavesDoNotShareGrowth: the leaves of a built tree are
// windows of one array; adding into one must not overwrite the next.
func TestBuildLeavesDoNotShareGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	var pts []Point
	seen := map[Point]bool{}
	for len(pts) < 64 {
		if p := randPoint(r, 9); !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	tr := Build(pts)
	for len(pts) < 400 {
		if p := randPoint(r, 9); !seen[p] {
			seen[p] = true
			pts = append(pts, p)
			tr.Add(p)
		}
	}
	checkBoxes(t, tr.root)
	for _, p := range pts {
		if !tr.Contains(p) {
			t.Fatalf("lost %v after adds into a built tree", p)
		}
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(pts))
	}
}

func TestBuildBalanced(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var pts []Point
	seen := map[Point]bool{}
	for len(pts) < 4096 {
		p := Point{r.Float64(), r.Float64(), r.Float64()}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	tr := Build(pts)
	// 4096 points / 8-point leaves → 9 split levels; allow slack for
	// tie-adjusted medians.
	if d := tr.Depth(); d > 14 {
		t.Errorf("Depth = %d, want ≤ 14 for a balanced build", d)
	}
	// Incremental insertion of sorted points degenerates far beyond that,
	// which is exactly why Build exists.
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return Less(sorted[i], sorted[j]) })
	inc := New()
	for _, p := range sorted[:1024] {
		inc.Add(p)
	}
	t.Logf("built depth=%d incremental(sorted,1024)=%d", tr.Depth(), inc.Depth())
}

func TestBuildEmptyAndTiny(t *testing.T) {
	if Build(nil).Len() != 0 {
		t.Error("empty build")
	}
	tr := Build([]Point{{1, 2, 3}})
	if tr.Len() != 1 || tr.Nearest(Point{0, 0, 0}) != (Point{1, 2, 3}) {
		t.Error("single-point build")
	}
}
