package unionfind

import (
	"sync"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
	"commlat/internal/stm"
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

// ML is the uf-ml variant: memory-level conflict detection with one
// conflict handle per element. Because path compression writes the
// parent pointers of every traversed element, two finds on the same
// chain conflict here even though finds always commute semantically —
// the pathology §2.5's union-find discussion opens with.
type ML struct {
	mu   sync.Mutex
	f    *Forest
	objs []stm.Obj
}

// NewML creates a uf-ml structure with n elements.
func NewML(n int) *ML {
	return &ML{f: NewForest(n), objs: make([]stm.Obj, n)}
}

// Forest exposes the underlying forest.
func (m *ML) Forest() *Forest { return m.f }

// acquirePath acquires the conflict handles a compressing find of x
// touches: writes on every element whose parent pointer changes, reads
// on the rest of the chain.
func (m *ML) acquirePath(tx *engine.Tx, x int64) error {
	r := m.f.FindNoCompress(x)
	for m.f.parent[x] != x {
		if m.f.parent[x] != r {
			if err := m.objs[x].Write(tx); err != nil {
				return err
			}
		} else if err := m.objs[x].Read(tx); err != nil {
			return err
		}
		x = m.f.parent[x]
	}
	return m.objs[x].Read(tx)
}

// Find returns a's representative under memory-level detection,
// compressing the path.
func (m *ML) Find(tx *engine.Tx, a int64) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.acquirePath(tx, a); err != nil {
		return 0, err
	}
	r, ws := m.f.FindW(a)
	if len(ws) > 0 {
		m.undoOnAbort(tx, ws)
	}
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
		if err := m.objs[l].Write(tx); err != nil {
			return false, err
		}
	}
	merged, ws := m.f.UnionW(a, b)
	if len(ws) > 0 {
		m.undoOnAbort(tx, ws)
	}
	return merged, nil
}

func (m *ML) undoOnAbort(tx *engine.Tx, ws []Write) {
	tx.OnUndo(func() {
		m.mu.Lock()
		m.f.Revert(ws)
		m.mu.Unlock()
	})
}

// Generic is the spec-driven general-gatekeeper variant: it hands figure
// 5's conditions to the generic rollback engine of internal/gatekeeper.
// It exists to cross-validate the hand-built GK below (and to show the
// systematic construction working end to end); GK is the faster of the
// two.
type Generic struct {
	g *gatekeeper.General
	f *Forest
}

// NewGeneric creates a generic-engine union-find with n elements.
func NewGeneric(n int) *Generic {
	f := NewForest(n)
	g, err := gatekeeper.NewGeneral(Spec(), Resolver(f))
	if err != nil {
		panic(err) // the general engine accepts all L1 specs
	}
	return &Generic{g: g, f: f}
}

// Forest exposes the underlying forest.
func (u *Generic) Forest() *Forest { return u.f }

// Union merges under the generic general gatekeeper.
func (u *Generic) Union(tx *engine.Tx, a, b int64) (bool, error) {
	var merged bool
	_, err := u.g.Invoke(tx, "union", core.Args2(core.VInt(a), core.VInt(b)), func() gatekeeper.Effect {
		var ws []Write
		merged, ws = u.f.UnionW(a, b)
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
	ret, err := u.g.Invoke(tx, "find", core.Args1(core.VInt(a)), func() gatekeeper.Effect {
		r, ws := u.f.FindW(a)
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
