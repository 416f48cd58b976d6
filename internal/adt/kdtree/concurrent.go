package kdtree

import (
	"sync"

	"commlat/internal/abslock"
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
	"commlat/internal/telemetry"
)

// Index is a transactionally guarded kd-tree: the interface the
// clustering application programs against, implemented both by the
// memory-level baseline (kd-ml) and the forward gatekeeper (kd-gk).
type Index interface {
	Add(tx *engine.Tx, p Point) (bool, error)
	Remove(tx *engine.Tx, p Point) (bool, error)
	Nearest(tx *engine.Tx, p Point) (Point, error)
	Contains(tx *engine.Tx, p Point) (bool, error)
	// Seed bulk-loads points; only safe with no live transactions.
	Seed(pts []Point)
	// Len returns the point count; only safe with no live transactions.
	Len() int
}

// MLTree is the kd-ml variant: object-granularity (memory-level)
// conflict detection on tree nodes, as an object-based STM would perform.
// Mutators write-acquire every node on their root-to-leaf path (they
// update bounding boxes all the way up), and nearest read-acquires every
// node whose box it examines — which is why concurrent mutations
// serialize against queries even when they semantically commute (§5).
type MLTree struct {
	mu sync.Mutex // physical atomicity; conflicts come from the stm objects
	t  *Tree
}

// NewML creates an empty kd-ml tree.
func NewML() *MLTree { return &MLTree{t: New()} }

// Seed bulk-loads points without conflict detection, building a balanced
// tree when starting empty.
func (m *MLTree) Seed(pts []Point) {
	if m.t.Len() == 0 {
		m.t = Build(pts)
		return
	}
	for _, p := range pts {
		m.t.Add(p)
	}
}

// Len returns the point count.
func (m *MLTree) Len() int { return m.t.Len() }

func (m *MLTree) visit(tx *engine.Tx) visitFn {
	return func(n *node, write bool) error {
		if write {
			return n.obj.Write(tx)
		}
		return n.obj.Read(tx)
	}
}

// Add inserts p under memory-level conflict detection.
func (m *MLTree) Add(tx *engine.Tx, p Point) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ok, err := m.t.AddV(p, m.visit(tx))
	if err != nil {
		return false, err
	}
	if ok {
		tx.OnUndo(func() {
			m.mu.Lock()
			m.t.Remove(p)
			m.mu.Unlock()
		})
	}
	return ok, nil
}

// Remove deletes p under memory-level conflict detection.
func (m *MLTree) Remove(tx *engine.Tx, p Point) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ok, err := m.t.RemoveV(p, m.visit(tx))
	if err != nil {
		return false, err
	}
	if ok {
		tx.OnUndo(func() {
			m.mu.Lock()
			m.t.Add(p)
			m.mu.Unlock()
		})
	}
	return ok, nil
}

// Nearest queries under memory-level conflict detection.
func (m *MLTree) Nearest(tx *engine.Tx, p Point) (Point, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t.NearestV(p, m.visit(tx))
}

// Contains queries membership under memory-level conflict detection,
// read-acquiring the root-to-leaf lookup path.
func (m *MLTree) Contains(tx *engine.Tx, p Point) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.t.root
	for n != nil {
		if err := n.obj.Read(tx); err != nil {
			return false, err
		}
		if n.leaf {
			for _, q := range n.pts {
				if q == p {
					return true, nil
				}
			}
			return false, nil
		}
		n = n.childFor(p)
	}
	return false, nil
}

// GKTree is the kd-gk variant: a forward gatekeeper built from figure 4's
// precise specification guards a plain tree. Because the gatekeeper only
// tracks semantic information — the paper's (x, dist(x, r)) log — it
// admits far more parallelism than kd-ml and pays no per-node tracking.
type GKTree struct {
	g *gatekeeper.Forward
	t *Tree
}

// NewGK creates an empty kd-gk tree.
func NewGK() *GKTree {
	g, err := gatekeeper.NewForward(Spec(), Resolve)
	if err != nil {
		panic(err) // figure 4's spec is ONLINE-CHECKABLE with dist pure
	}
	return &GKTree{g: g, t: New()}
}

// Seed bulk-loads points without conflict detection, building a balanced
// tree when starting empty.
func (k *GKTree) Seed(pts []Point) {
	k.g.Sync(func() {
		if k.t.Len() == 0 {
			k.t = Build(pts)
			return
		}
		for _, p := range pts {
			k.t.Add(p)
		}
	})
}

// Len returns the point count.
func (k *GKTree) Len() int {
	var n int
	k.g.Sync(func() { n = k.t.Len() })
	return n
}

// Add inserts p under gatekeeping.
func (k *GKTree) Add(tx *engine.Tx, p Point) (bool, error) {
	ret, err := k.g.Invoke(tx, "add", core.Args1(core.V(p)), func() gatekeeper.Effect {
		if k.t.Add(p) {
			return gatekeeper.Effect{Ret: core.VBool(true), Undo: func() { k.t.Remove(p) }}
		}
		return gatekeeper.Effect{Ret: core.VBool(false)}
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

// Remove deletes p under gatekeeping.
func (k *GKTree) Remove(tx *engine.Tx, p Point) (bool, error) {
	ret, err := k.g.Invoke(tx, "remove", core.Args1(core.V(p)), func() gatekeeper.Effect {
		if k.t.Remove(p) {
			return gatekeeper.Effect{Ret: core.VBool(true), Undo: func() { k.t.Add(p) }}
		}
		return gatekeeper.Effect{Ret: core.VBool(false)}
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

// Nearest queries under gatekeeping.
func (k *GKTree) Nearest(tx *engine.Tx, p Point) (Point, error) {
	ret, err := k.g.Invoke(tx, "nearest", core.Args1(core.V(p)), func() gatekeeper.Effect {
		return gatekeeper.Effect{Ret: core.V(k.t.Nearest(p))}
	})
	if err != nil {
		return None, err
	}
	return ret.Unbox().(Point), nil
}

// GateStats returns the forward gatekeeper's work counters.
func (k *GKTree) GateStats() gatekeeper.Stats { return k.g.Stats() }

// Telemetry returns the gatekeeper's telemetry detector, which
// additionally attributes checks and conflicts per method pair.
func (k *GKTree) Telemetry() *telemetry.Detector { return k.g.Telemetry() }

// Contains queries membership under gatekeeping.
func (k *GKTree) Contains(tx *engine.Tx, p Point) (bool, error) {
	ret, err := k.g.Invoke(tx, "contains", core.Args1(core.V(p)), func() gatekeeper.Effect {
		return gatekeeper.Effect{Ret: core.VBool(k.t.Contains(p))}
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

var (
	_ Index = (*MLTree)(nil)
	_ Index = (*GKTree)(nil)
)

// LockedTree is the kd-tree's abstract-locking point: the strongest
// SIMPLE specification below figure 4 (derived by core.StrengthenToSimple)
// synthesized into locks. The paper notes "there is no straightforward
// SIMPLE specification that does not merely prevent add and nearest from
// executing concurrently" — and indeed the derived condition for
// nearest~add/remove is false, so queries serialize against all mutators
// through the ds lock. It exists to make that cost measurable against
// kd-ml and kd-gk.
type LockedTree struct {
	mgr *abslock.Manager
	// Compiled acquisition handles, one per method.
	add, remove, nearest, contains *abslock.Method

	mu sync.Mutex
	t  *Tree
}

// NewLocked creates the abstract-locked kd-tree.
func NewLocked() *LockedTree {
	scheme, err := abslock.Synthesize(core.StrengthenToSimple(Spec()))
	if err != nil {
		panic(err) // StrengthenToSimple always yields a SIMPLE spec
	}
	mgr := abslock.NewManager(scheme.Reduce(), nil)
	return &LockedTree{
		mgr: mgr, t: New(),
		add: mgr.Method("add"), remove: mgr.Method("remove"),
		nearest: mgr.Method("nearest"), contains: mgr.Method("contains"),
	}
}

// Seed bulk-loads points without conflict detection.
func (l *LockedTree) Seed(pts []Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.t.Len() == 0 {
		l.t = Build(pts)
		return
	}
	for _, p := range pts {
		l.t.Add(p)
	}
}

// Len returns the point count.
func (l *LockedTree) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.Len()
}

// Add inserts p under the lock discipline.
func (l *LockedTree) Add(tx *engine.Tx, p Point) (bool, error) {
	if err := l.mgr.Acquire(tx, l.add, core.V(p)); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.t.Add(p) {
		return false, nil
	}
	tx.OnUndo(func() {
		l.mu.Lock()
		l.t.Remove(p)
		l.mu.Unlock()
	})
	return true, nil
}

// Remove deletes p under the lock discipline.
func (l *LockedTree) Remove(tx *engine.Tx, p Point) (bool, error) {
	if err := l.mgr.Acquire(tx, l.remove, core.V(p)); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.t.Remove(p) {
		return false, nil
	}
	tx.OnUndo(func() {
		l.mu.Lock()
		l.t.Add(p)
		l.mu.Unlock()
	})
	return true, nil
}

// Nearest queries under the lock discipline (serialized against all
// mutators by the synthesized ds lock).
func (l *LockedTree) Nearest(tx *engine.Tx, p Point) (Point, error) {
	if err := l.mgr.Acquire(tx, l.nearest, core.V(p)); err != nil {
		return None, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.Nearest(p), nil
}

// Contains queries membership under the lock discipline.
func (l *LockedTree) Contains(tx *engine.Tx, p Point) (bool, error) {
	if err := l.mgr.Acquire(tx, l.contains, core.V(p)); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.Contains(p), nil
}

var _ Index = (*LockedTree)(nil)
