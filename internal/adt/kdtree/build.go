package kdtree

// Build constructs a balanced tree over the given (distinct) points by
// recursive median splitting on the widest axis — the standard bulk-load
// used when a computation (like the clustering benchmark) starts from a
// known point set. Queries behave identically to incremental insertion;
// the tree is just better balanced.
//
// Each level finds its median by selection, not by sorting, so the load
// is O(n log n) and moves points only inside one array the tree owns:
// every leaf bucket is a window of it, capped at its own length so that
// a later Add into a full bucket reallocates that bucket instead of
// growing into its neighbour's points.
func Build(pts []Point) *Tree {
	t := &Tree{}
	if len(pts) == 0 {
		return t
	}
	own := make([]Point, len(pts)) // cap == len, which append's size classes would not give
	copy(own, pts)
	t.root = buildNode(own)
	return t
}

// buildNode builds the subtree over pts, which it owns and reorders;
// cap(pts) == len(pts).
func buildNode(pts []Point) *node {
	box := emptyBox
	for _, p := range pts {
		box = box.Extend(p)
	}
	if len(pts) <= leafCap {
		return &node{id: nodeIDs.Add(1), leaf: true, pts: pts, box: box, count: len(pts)}
	}
	// The widest axis, the lowest-numbered of equals. Any axis of nonzero
	// width admits a split (below), so no other axis is ever needed.
	axis, width := 0, box.Max[0]-box.Min[0]
	for i := 1; i < 3; i++ {
		if w := box.Max[i] - box.Min[i]; w > width {
			axis, width = i, w
		}
	}
	if width == 0 {
		// All points identical on every axis: only possible with
		// duplicates; degrade to an oversized leaf rather than recurse
		// forever.
		return &node{id: nodeIDs.Add(1), leaf: true, pts: pts, box: box, count: len(pts)}
	}
	// The split boundary must separate distinct coordinate values so that
	// childFor's "p[axis] < split" rule is consistent. Take the median
	// value m (rank len/2). If exactly len/2 points lie below it, it is
	// the boundary. Otherwise equal values straddle the midpoint: the
	// boundary moves up to the next larger value, or — when m is the
	// largest — stays at m, which the nonzero width keeps off the
	// smallest.
	half := len(pts) / 2
	selectNth(pts, half, axis)
	split := pts[half][axis]
	straddles := false
	for _, p := range pts[:half] {
		if p[axis] == split {
			straddles = true
			break
		}
	}
	if straddles {
		// selectNth left nothing larger than m before half, so the next
		// larger value is the smallest one after it.
		next, found := split, false
		for _, p := range pts[half+1:] {
			if v := p[axis]; v > split && (!found || v < next) {
				next, found = v, true
			}
		}
		split = next
	}
	mid := 0
	for i, p := range pts {
		if p[axis] < split {
			pts[i], pts[mid] = pts[mid], p
			mid++
		}
	}
	return &node{
		id:    nodeIDs.Add(1),
		axis:  axis,
		split: split,
		left:  buildNode(pts[:mid:mid]),
		right: buildNode(pts[mid:]),
		box:   box,
		count: len(pts),
	}
}

// selectNth reorders pts so that pts[n] holds the point of rank n by
// coordinate axis, with no larger coordinate before it and no smaller
// one after it (quickselect: median-of-three pivot, Hoare partition,
// which keeps runs of equal coordinates balanced).
func selectNth(pts []Point, n, axis int) {
	lo, hi := 0, len(pts)-1
	for lo < hi {
		// Order the ends and the middle; the middle one is the pivot.
		m := lo + (hi-lo)/2
		if pts[m][axis] < pts[lo][axis] {
			pts[m], pts[lo] = pts[lo], pts[m]
		}
		if pts[hi][axis] < pts[lo][axis] {
			pts[hi], pts[lo] = pts[lo], pts[hi]
		}
		if pts[hi][axis] < pts[m][axis] {
			pts[hi], pts[m] = pts[m], pts[hi]
		}
		pivot := pts[m][axis]
		i, j := lo, hi
		for i <= j {
			for pts[i][axis] < pivot {
				i++
			}
			for pts[j][axis] > pivot {
				j--
			}
			if i <= j {
				pts[i], pts[j] = pts[j], pts[i]
				i++
				j--
			}
		}
		// pts[lo..j] <= pivot <= pts[i..hi]; anything between is the pivot.
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return
		}
	}
}

// Depth returns the maximum node depth (1 for a single leaf); a balance
// diagnostic for tests.
func (t *Tree) Depth() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		if n == nil {
			return 0
		}
		if n.leaf {
			return 1
		}
		l, r := walk(n.left), walk(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(t.root)
}
