package unionfind

import (
	"sync"

	"commlat/internal/abslock"
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
)

// Sets is a transactionally guarded union-find structure: the interface
// Borůvka's algorithm programs against, implemented by uf-ml (memory
// level), uf-gk (the paper's concrete general gatekeeper) and the
// generic-engine variant.
type Sets interface {
	// Union merges a's and b's sets, reporting whether the partition
	// changed.
	Union(tx *engine.Tx, a, b int64) (bool, error)
	// Find returns the representative of a's set.
	Find(tx *engine.Tx, a int64) (int64, error)
	// Forest exposes the underlying forest; only safe with no live
	// transactions.
	Forest() *Forest
}

// ML is the uf-ml variant: memory-level conflict detection, one
// abslock.Memory cell per element. Because path compression writes the
// parent pointers of every traversed element, two finds on the same
// chain conflict here even though finds always commute semantically —
// the pathology §2.5's union-find discussion opens with.
type ML struct {
	mu  sync.Mutex
	f   *Forest
	mem *abslock.Memory
	log *engine.UndoLog[Write] // the forest's writes, undone by restoring Old
	ws  []Write                // scratch: one call's writes, before they are logged
}

// NewML creates a uf-ml structure with n elements.
func NewML(n int) *ML {
	m := &ML{f: NewForest(n), mem: abslock.NewMemory()}
	m.log = engine.NewUndoLog(&m.mu, func(w Write) { m.f.parent[w.Idx] = w.Old })
	return m
}

// Forest exposes the underlying forest.
func (m *ML) Forest() *Forest { return m.f }

// acquirePath acquires the cells a compressing find of x touches:
// writes on every element whose parent pointer changes, reads on the
// rest of the chain.
func (m *ML) acquirePath(tx *engine.Tx, x int64) error {
	r := m.f.FindNoCompress(x)
	for m.f.parent[x] != x {
		if m.f.parent[x] != r {
			if err := m.mem.Write(tx, x); err != nil {
				return err
			}
		} else if err := m.mem.Read(tx, x); err != nil {
			return err
		}
		x = m.f.parent[x]
	}
	return m.mem.Read(tx, x)
}

// Find returns a's representative under memory-level detection,
// compressing the path.
func (m *ML) Find(tx *engine.Tx, a int64) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.acquirePath(tx, a); err != nil {
		return 0, err
	}
	r, ws := m.f.findW(a, m.ws)
	m.record(tx, ws)
	return r, nil
}

// Union merges under memory-level detection.
func (m *ML) Union(tx *engine.Tx, a, b int64) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.acquirePath(tx, a); err != nil {
		return false, err
	}
	if err := m.acquirePath(tx, b); err != nil {
		return false, err
	}
	// The loser's parent pointer is written.
	ra, rb := m.f.FindNoCompress(a), m.f.FindNoCompress(b)
	if ra != rb {
		l := ra
		if rb < ra {
			l = rb
		}
		if err := m.mem.Write(tx, l); err != nil {
			return false, err
		}
	}
	merged, ws := m.f.unionW(a, b, m.ws)
	m.record(tx, ws)
	return merged, nil
}

// record logs one call's writes for tx, oldest first, and keeps their
// buffer for the next call.
func (m *ML) record(tx *engine.Tx, ws []Write) {
	for _, w := range ws {
		m.log.Record(tx, w)
	}
	m.ws = ws[:0]
}

// Generic is the spec-driven general-gatekeeper variant: it hands figure
// 5's conditions to the generic rollback engine of internal/gatekeeper.
// It exists to cross-validate the hand-built GK below (and to show the
// systematic construction working end to end); GK is the faster of the
// two.
type Generic struct {
	g           *gatekeeper.General
	union, find *gatekeeper.Method
	f           *Forest
}

// NewGeneric creates a generic-engine union-find with n elements.
func NewGeneric(n int) *Generic {
	f := NewForest(n)
	g, err := gatekeeper.NewGeneral(Spec(), Resolver(f))
	if err != nil {
		panic(err) // the general engine accepts all L1 specs
	}
	return &Generic{g: g, union: g.Method("union"), find: g.Method("find"), f: f}
}

// Forest exposes the underlying forest.
func (u *Generic) Forest() *Forest { return u.f }

// Union merges under the generic general gatekeeper.
func (u *Generic) Union(tx *engine.Tx, a, b int64) (bool, error) {
	var merged bool
	_, err := u.g.Invoke(tx, u.union, core.Args2(core.VInt(a), core.VInt(b)), func() gatekeeper.Effect {
		var ws []Write
		merged, ws = u.f.unionW(a, b, nil)
		if len(ws) == 0 {
			return gatekeeper.Effect{}
		}
		return gatekeeper.Effect{
			Undo: func() { u.f.Revert(ws) },
			Redo: func() { u.f.Apply(ws) },
		}
	})
	if err != nil {
		return false, err
	}
	return merged, nil
}

// Find returns a's representative under the generic general gatekeeper.
func (u *Generic) Find(tx *engine.Tx, a int64) (int64, error) {
	ret, err := u.g.Invoke(tx, u.find, core.Args1(core.VInt(a)), func() gatekeeper.Effect {
		r, ws := u.f.findW(a, nil)
		eff := gatekeeper.Effect{Ret: core.VInt(r)}
		if len(ws) > 0 {
			eff.Undo = func() { u.f.Revert(ws) }
			eff.Redo = func() { u.f.Apply(ws) }
		}
		return eff
	})
	if err != nil {
		return 0, err
	}
	return ret.Int(), nil
}

var (
	_ Sets = (*ML)(nil)
	_ Sets = (*Generic)(nil)
	_ Sets = (*GK)(nil)
)
