// Package cluster implements agglomerative clustering over a kd-tree,
// the paper's forward-gatekeeping case study (§5, after Walter et al.):
// repeatedly find reciprocal nearest-neighbour pairs, replace them with
// their midpoint cluster, and record the merge in a dendrogram, until a
// single cluster remains. Iterations run speculatively over any guarded
// kd-tree variant (kd-ml or kd-gk).
package cluster

import (
	"sync"

	"commlat/internal/adt/kdtree"
	"commlat/internal/engine"
	"commlat/internal/parameter"
)

// Merge is one dendrogram node: two clusters replaced by their midpoint.
type Merge struct {
	A, B, Parent kdtree.Point
}

// Dendrogram accumulates merges; aborted transactions tombstone their
// records (the merge log is a boosted auxiliary structure, like the
// paper's worklists). The records of one transaction are chained newest
// first from its Tx.Attach word, so an abort tombstones them without a
// closure or a node per merge.
type Dendrogram struct {
	mu     sync.Mutex
	merges []mergeRec
}

type mergeRec struct {
	Merge
	prev    uint64 // the same transaction's previous record: index+1, 0 = none
	aborted bool
}

// newDendrogram returns a dendrogram with room for the n − 1 merges of
// n points (aborted attempts beyond that grow it).
func newDendrogram(n int) *Dendrogram {
	return &Dendrogram{merges: make([]mergeRec, 0, n)}
}

// add records a merge made by tx, to be tombstoned should tx abort. A
// nil tx (the sequential algorithm) records it for good.
func (d *Dendrogram) add(tx *engine.Tx, a, b, parent kdtree.Point) {
	rec := mergeRec{Merge: Merge{A: a, B: b, Parent: parent}}
	var head *uint64
	if tx != nil {
		var isNew bool
		if head, isNew = tx.Attach(d); isNew {
			tx.OnUndoer(d)
		}
		rec.prev = *head
	}
	d.mu.Lock()
	d.merges = append(d.merges, rec)
	if head != nil {
		*head = uint64(len(d.merges))
	}
	d.mu.Unlock()
}

// UndoTx tombstones the merges tx recorded.
func (d *Dendrogram) UndoTx(tx *engine.Tx) {
	d.mu.Lock()
	for i := *tx.AttachedWord(d); i != 0; i = d.merges[i-1].prev {
		d.merges[i-1].aborted = true
	}
	d.mu.Unlock()
}

// Merges returns the committed merges in commit order.
func (d *Dendrogram) Merges() []Merge {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Merge, 0, len(d.merges))
	for i := range d.merges {
		if m := &d.merges[i]; !m.aborted {
			out = append(out, m.Merge)
		}
	}
	return out
}

// Midpoint is the representative of a merged cluster.
func Midpoint(a, b kdtree.Point) kdtree.Point {
	return kdtree.Point{(a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2}
}

// Step is one speculative iteration over point p: if p is stale, do
// nothing; if p and its nearest neighbour are mutually nearest, merge
// them; otherwise requeue p. It reports whether it merged.
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
	d.add(tx, p, n, c)
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
		d.add(nil, p, n, c)
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
