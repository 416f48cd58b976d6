// Package cluster implements agglomerative clustering over a kd-tree,
// the paper's forward-gatekeeping case study (§5, after Walter et al.):
// repeatedly find reciprocal nearest-neighbour pairs, replace them with
// their midpoint cluster, and record the merge in a dendrogram, until a
// single cluster remains. Iterations run speculatively over any guarded
// kd-tree variant (kd-ml or kd-gk).
package cluster

import (
	"slices"
	"sync"

	"commlat/internal/adt/kdtree"
	"commlat/internal/engine"
	"commlat/internal/parameter"
)

// Merge is one dendrogram node: two clusters replaced by their midpoint.
type Merge struct {
	A, B, Parent kdtree.Point
}

// Dendrogram accumulates merges (the merge log is a boosted auxiliary
// structure, like the paper's worklists). Step records a merge only
// after its last refusable call has sealed the transaction, so every
// merge recorded belongs to a transaction that commits.
type Dendrogram struct {
	mu     sync.Mutex
	merges []Merge
}

// newDendrogram returns a dendrogram with room for the n − 1 merges of
// n points.
func newDendrogram(n int) *Dendrogram {
	return &Dendrogram{merges: make([]Merge, 0, n)}
}

// add records the merge of a and b into parent.
func (d *Dendrogram) add(a, b, parent kdtree.Point) {
	d.mu.Lock()
	d.merges = append(d.merges, Merge{A: a, B: b, Parent: parent})
	d.mu.Unlock()
}

// Merges returns a copy of the merges in commit order.
func (d *Dendrogram) Merges() []Merge {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.merges)
}

// Midpoint is the representative of a merged cluster.
func Midpoint(a, b kdtree.Point) kdtree.Point {
	return kdtree.Point{(a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2}
}

// Step is one speculative iteration over point p: if p is stale, do
// nothing; if p and its nearest neighbour are mutually nearest, merge
// them; otherwise requeue p. It reports whether it merged. Its final Add
// is its last refusable call: once it succeeds Step seals tx, and what
// follows writes no undo.
func Step(tx *engine.Tx, idx kdtree.Index, d *Dendrogram, p kdtree.Point, push func(kdtree.Point)) (bool, error) {
	ok, err := idx.Contains(tx, p)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil // p was merged away by an earlier iteration
	}
	n, err := idx.Nearest(tx, p)
	if err != nil {
		return false, err
	}
	if n.IsNone() {
		return false, nil // single cluster: done
	}
	m, err := idx.Nearest(tx, n)
	if err != nil {
		return false, err
	}
	if m != p {
		// Not reciprocal: someone closer to n exists; try p again later.
		push(p)
		return false, nil
	}
	if _, err := idx.Remove(tx, p); err != nil {
		return false, err
	}
	if _, err := idx.Remove(tx, n); err != nil {
		return false, err
	}
	c := Midpoint(p, n)
	if _, err := idx.Add(tx, c); err != nil {
		return false, err
	}
	tx.Seal()
	d.add(p, n, c)
	push(c)
	return true, nil
}

// Result summarizes a clustering run.
type Result struct {
	Merges int
	Stats  engine.Stats
}

// Run clusters pts speculatively over idx (which must be empty) and
// returns the dendrogram. With n input points it performs exactly n-1
// merges.
func Run(idx kdtree.Index, pts []kdtree.Point, opts engine.Options) (*Dendrogram, Result, error) {
	idx.Seed(pts)
	d := newDendrogram(len(pts))
	wl := engine.NewWorklist(pts...)
	stats, err := engine.Run(wl, opts, func(tx *engine.Tx, p kdtree.Point, wl *engine.Worklist[kdtree.Point]) error {
		_, err := Step(tx, idx, d, p, func(q kdtree.Point) { wl.Push(q) })
		return err
	})
	res := Result{Merges: len(d.Merges()), Stats: stats}
	return d, res, err
}

// Sequential clusters pts with a plain kd-tree (no conflict detection)
// and returns the dendrogram; the reference implementation.
func Sequential(pts []kdtree.Point) *Dendrogram {
	t := kdtree.New()
	for _, p := range pts {
		t.Add(p)
	}
	d := newDendrogram(len(pts))
	queue := append([]kdtree.Point(nil), pts...)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if !t.Contains(p) {
			continue
		}
		n := t.Nearest(p)
		if n.IsNone() {
			break
		}
		if t.Nearest(n) != p {
			queue = append(queue, p)
			continue
		}
		t.Remove(p)
		t.Remove(n)
		c := Midpoint(p, n)
		t.Add(c)
		d.add(p, n, c)
		queue = append(queue, c)
	}
	return d
}

// ProfileResult bundles a parallelism profile with the merge count.
type ProfileResult struct {
	parameter.Result
	Merges int
}

// Profile measures the parallelism of clustering pts under the guarded
// index idx (Table 1's kd-ml vs kd-gk rows).
func Profile(idx kdtree.Index, pts []kdtree.Point) (ProfileResult, error) {
	idx.Seed(pts)
	d := newDendrogram(len(pts))
	res, err := parameter.Profile(pts, func(tx *engine.Tx, p kdtree.Point, push func(kdtree.Point)) (bool, error) {
		return Step(tx, idx, d, p, push)
	})
	return ProfileResult{Result: res, Merges: len(d.Merges())}, err
}
