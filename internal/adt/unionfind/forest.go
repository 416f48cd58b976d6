// Package unionfind implements the paper's union-find ADT (§2.5): a
// disjoint-set forest with path compression, the commutativity
// specification of figure 5, and three concurrent variants — uf-ml
// (object-level STM conflict detection, where path compression makes
// semantically read-only finds collide), uf-gk (the paper's concrete
// general gatekeeper of §3.3.2 with its find-reps and loser-rep logs),
// and a generic general-gatekeeper variant used for cross-validation.
//
// Substitution note (see DESIGN.md): ranks are *static priorities* — an
// element's rank is its index, fixed forever, so the winner of a union is
// always the higher-numbered representative. With classic tie-bumping
// union-by-rank, figure 5's conditions are not valid: a rank tie makes
// the loser decision order-dependent in a way find can observe (the
// brute-force checker in this package demonstrates it). Static unique
// priorities make rep and loser pure functions of the partition, the
// reading under which the paper's conditions are precise. Path
// compression — the concrete-state mutation the paper's uf-ml/uf-gk
// comparison hinges on — is retained and keeps finds near-constant
// amortized.
package unionfind

// Write is one concrete mutation of the forest: parent[Idx] changed from
// Old to New. Gatekeepers journal writes to roll the structure back to
// earlier states exactly (undo) and restore it (redo).
type Write struct {
	Idx      int64
	Old, New int64
}

// Forest is a sequential (non-thread-safe) disjoint-set forest with path
// compression and static-priority unions.
type Forest struct {
	parent []int64
}

// NewForest creates a forest of n singleton sets {0}, {1}, ..., {n-1}.
func NewForest(n int) *Forest {
	f := &Forest{parent: make([]int64, n)}
	for i := range f.parent {
		f.parent[i] = int64(i)
	}
	return f
}

// Len returns the number of elements.
func (f *Forest) Len() int { return len(f.parent) }

// Grow appends a fresh singleton element and returns its id (the
// "create" method of figure 5).
func (f *Forest) Grow() int64 {
	id := int64(len(f.parent))
	f.parent = append(f.parent, id)
	return id
}

// FindNoCompress returns the representative of x's set without mutating
// the forest. Gatekeepers use it to evaluate rep in rolled-back states.
func (f *Forest) FindNoCompress(x int64) int64 {
	for f.parent[x] != x {
		x = f.parent[x]
	}
	return x
}

// Find returns the representative of x's set, compressing the traversed
// path — the concrete-state mutation that makes finds conflict under
// memory-level detection even though they commute semantically.
func (f *Forest) Find(x int64) int64 {
	r := f.FindNoCompress(x)
	for f.parent[x] != r {
		x, f.parent[x] = f.parent[x], r
	}
	return r
}

// FindW is Find returning the concrete writes compression performed.
func (f *Forest) FindW(x int64) (int64, []Write) { return f.findW(x, nil) }

// findW is FindW appending the writes to ws, so a caller that owns a
// scratch buffer pays no allocation per compressing find.
func (f *Forest) findW(x int64, ws []Write) (int64, []Write) {
	r := f.FindNoCompress(x)
	for f.parent[x] != r {
		next := f.parent[x]
		ws = append(ws, Write{Idx: x, Old: next, New: r})
		f.parent[x] = r
		x = next
	}
	return r, ws
}

// Loser returns the representative that would lose a union of a's and
// b's sets: the lower-priority (lower-numbered) representative, per the
// static-priority reading of the paper's loser helper. When a and b are
// already in the same set it returns their common representative.
func (f *Forest) Loser(a, b int64) int64 {
	ra, rb := f.FindNoCompress(a), f.FindNoCompress(b)
	if ra < rb {
		return ra
	}
	return rb
}

// Union merges the sets of a and b, reporting whether the forest changed
// (false when they were already joined).
func (f *Forest) Union(a, b int64) bool {
	ok, _ := f.UnionW(a, b)
	return ok
}

// UnionW is Union returning the concrete writes performed (the loser
// representative's parent write plus any path compression by the
// internal finds).
func (f *Forest) UnionW(a, b int64) (bool, []Write) { return f.unionW(a, b, nil) }

// unionW is UnionW appending the writes to ws.
func (f *Forest) unionW(a, b int64, ws []Write) (bool, []Write) {
	ra, ws := f.findW(a, ws)
	rb, ws := f.findW(b, ws)
	if ra == rb {
		return false, ws
	}
	l, w := ra, rb
	if rb < ra {
		l, w = rb, ra
	}
	ws = append(ws, Write{Idx: l, Old: l, New: w})
	f.parent[l] = w
	return true, ws
}

// Same reports whether a and b are in the same set (without compressing).
func (f *Forest) Same(a, b int64) bool {
	return f.FindNoCompress(a) == f.FindNoCompress(b)
}

// Revert undoes a write list (newest first): exact-state rollback.
func (f *Forest) Revert(ws []Write) {
	for i := len(ws) - 1; i >= 0; i-- {
		f.parent[ws[i].Idx] = ws[i].Old
	}
}

// Apply re-applies a write list (oldest first): exact-state redo.
func (f *Forest) Apply(ws []Write) {
	for _, w := range ws {
		f.parent[w.Idx] = w.New
	}
}

// Sets returns the number of disjoint sets (an O(n) scan; for tests and
// result validation).
func (f *Forest) Sets() int {
	n := 0
	for i := range f.parent {
		if f.parent[i] == int64(i) {
			n++
		}
	}
	return n
}
