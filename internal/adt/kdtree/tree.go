package kdtree

import "sync/atomic"

// leafCap is the leaf bucket size; leaves split when they overflow.
const leafCap = 8

// node is a kd-tree node. Interior nodes carry a splitting plane
// (axis/split) and the bounding box of all points beneath them — the
// concrete state whose updates make memory-level conflict detection so
// pessimistic for this structure (§5, clustering). Leaves carry a small
// point bucket.
type node struct {
	box Box
	// count is structural bookkeeping (collapse decisions, Len); the
	// paper's kd-tree nodes carry splitting planes and bounding boxes
	// only, so count is not part of the memory-level conflict model.
	count int

	// interior
	axis        int
	split       float64
	left, right *node

	// leaf
	leaf bool
	pts  []Point

	// id names the node as a memory cell for kd-ml's memory-level locks;
	// the plain tree never reads it.
	id int64
}

// nodeIDs numbers nodes as they are made. An id is never reused, so a
// lock still held on a node that is gone names no other node.
var nodeIDs atomic.Int64

// Tree is a sequential (non-thread-safe) kd-tree: points live in leaf
// buckets, interior nodes keep splitting planes and bounding boxes, and
// nearest uses box pruning for expected-logarithmic queries.
type Tree struct {
	root *node
}

// New creates an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of points.
func (t *Tree) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.count
}

// visitFn observes each node an operation touches, before the node is
// read or mutated; write says whether the operation will mutate the node.
// kd-ml acquires the node's memory cell here; a non-nil error aborts the
// operation before it changes anything below.
type visitFn func(n *node, write bool) error

// Add inserts p, reporting whether the tree changed (false if p was
// already present).
func (t *Tree) Add(p Point) bool {
	ok, _ := t.AddV(p, nil)
	return ok
}

// AddV is Add with a node visitor (used by instrumented variants).
func (t *Tree) AddV(p Point, visit visitFn) (bool, error) {
	if t.root == nil {
		t.root = &node{id: nodeIDs.Add(1), leaf: true, pts: []Point{p}, box: emptyBox.Extend(p), count: 1}
		if visit != nil {
			if err := visit(t.root, true); err != nil {
				t.root = nil
				return false, err
			}
		}
		return true, nil
	}
	return t.root.add(p, visit)
}

func (n *node) add(p Point, visit visitFn) (bool, error) {
	if visit != nil {
		// Memory-level precision: an interior node is only *written* when
		// its bounding box actually changes (a point inside the box
		// leaves ancestors untouched, as a real STM would observe).
		// Leaves are always written (their bucket changes).
		write := n.leaf || n.box.Extend(p) != n.box
		if err := visit(n, write); err != nil {
			return false, err
		}
	}
	if n.leaf {
		for _, q := range n.pts {
			if q == p {
				return false, nil
			}
		}
		n.pts = append(n.pts, p)
		n.count++
		n.box = n.box.Extend(p)
		if len(n.pts) > leafCap {
			n.splitLeaf()
		}
		return true, nil
	}
	child := n.childFor(p)
	ok, err := child.add(p, visit)
	if !ok || err != nil {
		return false, err
	}
	n.count++
	n.box = n.box.Extend(p)
	return true, nil
}

func (n *node) childFor(p Point) *node {
	if p[n.axis] < n.split {
		return n.left
	}
	return n.right
}

// splitLeaf turns an overflowing leaf into an interior node, splitting on
// the widest dimension at the midpoint between the two middle candidate
// values (falling back to other axes when all points share a coordinate).
func (n *node) splitLeaf() {
	// Pick the widest axis of the leaf's points.
	bb := emptyBox
	for _, p := range n.pts {
		bb = bb.Extend(p)
	}
	axis, width := 0, -1.0
	for i := 0; i < 3; i++ {
		if w := bb.Max[i] - bb.Min[i]; w > width {
			axis, width = i, w
		}
	}
	if width == 0 {
		// Distinct points always differ somewhere, so a zero-width box
		// cannot occur; guard anyway rather than split into an empty side.
		return
	}
	split := (bb.Min[axis] + bb.Max[axis]) / 2
	var lpts, rpts []Point
	for _, p := range n.pts {
		if p[axis] < split {
			lpts = append(lpts, p)
		} else {
			rpts = append(rpts, p)
		}
	}
	if len(lpts) == 0 || len(rpts) == 0 {
		// Degenerate midpoint (e.g. many equal coordinates): leave the
		// bucket oversized; future splits on other axes will succeed.
		return
	}
	lbox, rbox := emptyBox, emptyBox
	for _, p := range lpts {
		lbox = lbox.Extend(p)
	}
	for _, p := range rpts {
		rbox = rbox.Extend(p)
	}
	n.leaf = false
	n.axis, n.split = axis, split
	n.left = &node{id: nodeIDs.Add(1), leaf: true, pts: lpts, box: lbox, count: len(lpts)}
	n.right = &node{id: nodeIDs.Add(1), leaf: true, pts: rpts, box: rbox, count: len(rpts)}
	n.pts = nil
}

// Remove deletes p, reporting whether the tree changed. Bounding boxes
// along the path are recomputed; empty children collapse away.
func (t *Tree) Remove(p Point) bool {
	ok, _ := t.RemoveV(p, nil)
	return ok
}

// RemoveV is Remove with a node visitor.
func (t *Tree) RemoveV(p Point, visit visitFn) (bool, error) {
	if t.root == nil {
		return false, nil
	}
	ok, err := t.root.remove(p, visit)
	if ok && t.root.count == 0 {
		t.root = nil
	}
	return ok, err
}

func (n *node) remove(p Point, visit visitFn) (bool, error) {
	if visit != nil {
		// An interior node's box can only shrink if the removed point
		// lies on its boundary; interior removals leave ancestors
		// untouched at memory level.
		write := n.leaf || onBoundary(n.box, p)
		if err := visit(n, write); err != nil {
			return false, err
		}
	}
	if n.leaf {
		for i, q := range n.pts {
			if q == p {
				n.pts = append(n.pts[:i], n.pts[i+1:]...)
				n.count--
				n.box = emptyBox
				for _, r := range n.pts {
					n.box = n.box.Extend(r)
				}
				return true, nil
			}
		}
		return false, nil
	}
	child, other := n.left, n.right
	if child != n.childFor(p) {
		child, other = other, child
	}
	// A removal reads the sibling: its box for n's new box, or its whole
	// contents for the collapse. It is visited before the descent, so a
	// refusal leaves the tree unchanged.
	if visit != nil {
		if err := visit(other, false); err != nil {
			return false, err
		}
	}
	ok, err := child.remove(p, visit)
	if !ok || err != nil {
		return false, err
	}
	n.count--
	if child.count == 0 {
		// Collapse: adopt the surviving child's contents under n's own id.
		id := n.id
		*n = *other
		n.id = id
		return true, nil
	}
	n.box = n.left.box.Union(n.right.box)
	return true, nil
}

// Contains reports whether p is in the tree.
func (t *Tree) Contains(p Point) bool {
	ok, _ := t.ContainsV(p, nil)
	return ok
}

// ContainsV is Contains with a node visitor (visited with write ==
// false), which sees the root-to-leaf lookup path.
func (t *Tree) ContainsV(p Point, visit visitFn) (bool, error) {
	for n := t.root; n != nil; n = n.childFor(p) {
		if visit != nil {
			if err := visit(n, false); err != nil {
				return false, err
			}
		}
		if n.leaf {
			for _, q := range n.pts {
				if q == p {
					return true, nil
				}
			}
			return false, nil
		}
	}
	return false, nil
}

// Nearest returns the point nearest to q, excluding q itself if present
// (the clustering convention). For an empty tree — or one whose only
// point is q — it returns None, the point at infinity. Ties break toward
// the lexicographically smaller point, making the query deterministic.
func (t *Tree) Nearest(q Point) Point {
	p, _ := t.NearestV(q, nil)
	return p
}

// NearestV is Nearest with a node visitor (visited with write == false).
func (t *Tree) NearestV(q Point, visit visitFn) (Point, error) {
	best, bestD := None, DistSq(q, None)
	if t.root != nil {
		var err error
		best, bestD, err = t.root.nearest(q, best, bestD, visit)
		if err != nil {
			return None, err
		}
	}
	return best, nil
}

func (n *node) nearest(q Point, best Point, bestD float64, visit visitFn) (Point, float64, error) {
	if visit != nil {
		if err := visit(n, false); err != nil {
			return best, bestD, err
		}
	}
	if n.box.MinDistSq(q) > bestD {
		return best, bestD, nil
	}
	if n.leaf {
		for _, p := range n.pts {
			if p == q {
				continue
			}
			if d := DistSq(q, p); closer(p, d, best, bestD) {
				best, bestD = p, d
			}
		}
		return best, bestD, nil
	}
	first, second := n.left, n.right
	if q[n.axis] >= n.split {
		first, second = n.right, n.left
	}
	var err error
	best, bestD, err = first.nearest(q, best, bestD, visit)
	if err != nil {
		return best, bestD, err
	}
	// Equal-distance candidates matter for the deterministic tie-break,
	// so only prune strictly worse boxes. With a visitor, second's box is
	// read only once second is visited: second.nearest visits it, then
	// applies the same prune to its own box.
	if visit != nil || second.box.MinDistSq(q) <= bestD {
		best, bestD, err = second.nearest(q, best, bestD, visit)
	}
	return best, bestD, err
}

// Points returns all points (in no particular order); for tests and
// snapshots.
func (t *Tree) Points() []Point {
	var out []Point
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.leaf {
			out = append(out, n.pts...)
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return out
}
