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
// conflict detection on tree nodes, one abslock.Memory cell per node id.
// Mutators write-acquire the path nodes whose state they change (a
// leaf's bucket, an ancestor's box) and read-acquire the rest; nearest
// read-acquires every node it descends into — which is why concurrent
// mutations serialize against queries even when they semantically
// commute (§5).
type MLTree struct {
	mu  sync.Mutex // physical atomicity; conflicts come from mem
	t   *Tree
	mem *abslock.Memory
	log *engine.UndoLog[mutation]
}

// mutation is an add (added) or a remove of p.
type mutation struct {
	p     Point
	added bool
}

// apply performs m on t, or its inverse if undo is set, under visit
// (nil for none), and reports whether t changed.
func (m mutation) apply(t *Tree, undo bool, visit visitFn) (bool, error) {
	if m.added != undo {
		return t.AddV(m.p, visit)
	}
	return t.RemoveV(m.p, visit)
}

// NewML creates an empty kd-ml tree.
func NewML() *MLTree {
	m := &MLTree{t: New(), mem: abslock.NewMemory()}
	m.log = engine.NewUndoLog(&m.mu, func(r mutation) { r.apply(m.t, true, nil) })
	return m
}

// seed bulk-loads pts into t, or into a balanced tree if t is empty.
func seed(t *Tree, pts []Point) *Tree {
	if t.Len() == 0 {
		return Build(pts)
	}
	for _, p := range pts {
		t.Add(p)
	}
	return t
}

// Seed bulk-loads points without conflict detection, building a balanced
// tree when starting empty.
func (m *MLTree) Seed(pts []Point) { m.t = seed(m.t, pts) }

// Len returns the point count.
func (m *MLTree) Len() int { return m.t.Len() }

func (m *MLTree) visit(tx *engine.Tx) visitFn {
	return func(n *node, write bool) error {
		if write {
			return m.mem.Write(tx, n.id)
		}
		return m.mem.Read(tx, n.id)
	}
}

// Add inserts p under memory-level conflict detection.
func (m *MLTree) Add(tx *engine.Tx, p Point) (bool, error) { return m.mutate(tx, mutation{p, true}) }

// Remove deletes p under memory-level conflict detection.
func (m *MLTree) Remove(tx *engine.Tx, p Point) (bool, error) {
	return m.mutate(tx, mutation{p, false})
}

// mutate performs r under memory-level detection, logging a change.
func (m *MLTree) mutate(tx *engine.Tx, r mutation) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ok, err := r.apply(m.t, false, m.visit(tx))
	if ok {
		m.log.Record(tx, r)
	}
	return ok, err
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
	return m.t.ContainsV(p, m.visit(tx))
}

// GKTree is the kd-gk variant: a forward gatekeeper built from figure 4's
// precise specification guards a plain tree. Because the gatekeeper only
// tracks semantic information — the paper's (x, dist(x, r)) log — it
// admits far more parallelism than kd-ml and pays no per-node tracking.
// Points travel as inline vector Values, and add and remove are each
// other's inverse, applied to the logged argument: a guarded call
// allocates nothing.
type GKTree struct {
	g                              *gatekeeper.Forward
	add, remove, nearest, contains *gatekeeper.Method
	t                              *Tree
}

// NewGK creates an empty kd-gk tree.
func NewGK() *GKTree {
	g, err := gatekeeper.NewForward(Spec(), Resolve)
	if err != nil {
		panic(err) // figure 4's spec is ONLINE-CHECKABLE with dist pure
	}
	k := &GKTree{
		g: g, t: New(),
		add: g.Method("add"), remove: g.Method("remove"),
		nearest: g.Method("nearest"), contains: g.Method("contains"),
	}
	k.add.SetInverse(func(inv *core.Invocation) { k.t.Remove(argPoint(inv)) })
	k.remove.SetInverse(func(inv *core.Invocation) { k.t.Add(argPoint(inv)) })
	return k
}

// argPoint reads the point argument of a logged invocation.
func argPoint(inv *core.Invocation) Point {
	a := inv.Args.At(0)
	c, _ := a.AsVec()
	return c
}

// Seed bulk-loads points without conflict detection, building a balanced
// tree when starting empty.
func (k *GKTree) Seed(pts []Point) { k.g.Sync(func() { k.t = seed(k.t, pts) }) }

// Len returns the point count.
func (k *GKTree) Len() int {
	var n int
	k.g.Sync(func() { n = k.t.Len() })
	return n
}

// Add inserts p under gatekeeping.
func (k *GKTree) Add(tx *engine.Tx, p Point) (bool, error) {
	ret, err := k.g.Invoke(tx, k.add, core.Args1(core.VVec(p)), func() gatekeeper.Effect {
		ok := k.t.Add(p)
		return gatekeeper.Effect{Ret: core.VBool(ok), Changed: ok}
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

// Remove deletes p under gatekeeping.
func (k *GKTree) Remove(tx *engine.Tx, p Point) (bool, error) {
	ret, err := k.g.Invoke(tx, k.remove, core.Args1(core.VVec(p)), func() gatekeeper.Effect {
		ok := k.t.Remove(p)
		return gatekeeper.Effect{Ret: core.VBool(ok), Changed: ok}
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

// Nearest queries under gatekeeping.
func (k *GKTree) Nearest(tx *engine.Tx, p Point) (Point, error) {
	ret, err := k.g.Invoke(tx, k.nearest, core.Args1(core.VVec(p)), func() gatekeeper.Effect {
		return gatekeeper.Effect{Ret: core.VVec(k.t.Nearest(p))}
	})
	if err != nil {
		return None, err
	}
	q, _ := ret.AsVec()
	return q, nil
}

// Telemetry returns the gatekeeper's telemetry detector, which
// additionally attributes checks and conflicts per method pair.
func (k *GKTree) Telemetry() *telemetry.Detector { return k.g.Telemetry() }

// Contains queries membership under gatekeeping.
func (k *GKTree) Contains(tx *engine.Tx, p Point) (bool, error) {
	ret, err := k.g.Invoke(tx, k.contains, core.Args1(core.VVec(p)), func() gatekeeper.Effect {
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

	mu  sync.Mutex
	t   *Tree
	log *engine.UndoLog[mutation]
}

// lockedScheme is the reduced scheme of Spec strengthened to SIMPLE,
// synthesized once.
var lockedScheme = abslock.Shipped(func() *core.Spec { return core.StrengthenToSimple(Spec()) })

// NewLocked creates the abstract-locked kd-tree.
func NewLocked() *LockedTree {
	mgr := abslock.NewManager(lockedScheme(), nil)
	l := &LockedTree{
		mgr: mgr, t: New(),
		add: mgr.Method("add"), remove: mgr.Method("remove"),
		nearest: mgr.Method("nearest"), contains: mgr.Method("contains"),
	}
	l.log = engine.NewUndoLog(&l.mu, func(r mutation) { r.apply(l.t, true, nil) })
	return l
}

// Seed bulk-loads points without conflict detection.
func (l *LockedTree) Seed(pts []Point) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t = seed(l.t, pts)
}

// Len returns the point count.
func (l *LockedTree) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.Len()
}

// Add inserts p under the lock discipline.
func (l *LockedTree) Add(tx *engine.Tx, p Point) (bool, error) {
	return l.mutate(tx, l.add, mutation{p, true})
}

// Remove deletes p under the lock discipline.
func (l *LockedTree) Remove(tx *engine.Tx, p Point) (bool, error) {
	return l.mutate(tx, l.remove, mutation{p, false})
}

// mutate performs r under h's locks, logging a change.
func (l *LockedTree) mutate(tx *engine.Tx, h *abslock.Method, r mutation) (bool, error) {
	if err := l.mgr.Acquire(tx, h, core.VVec(r.p)); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ok, _ := r.apply(l.t, false, nil)
	if ok {
		l.log.Record(tx, r)
	}
	return ok, nil
}

// Nearest queries under the lock discipline (serialized against all
// mutators by the synthesized ds lock), then locks the returned point in
// the scheme's post-execution nearest:ret mode.
func (l *LockedTree) Nearest(tx *engine.Tx, p Point) (Point, error) {
	if err := l.mgr.Acquire(tx, l.nearest, core.VVec(p)); err != nil {
		return None, err
	}
	l.mu.Lock()
	q := l.t.Nearest(p)
	l.mu.Unlock()
	if err := l.mgr.AcquirePost(tx, l.nearest, core.VVec(q), core.VVec(p)); err != nil {
		return None, err
	}
	return q, nil
}

// Contains queries membership under the lock discipline.
func (l *LockedTree) Contains(tx *engine.Tx, p Point) (bool, error) {
	if err := l.mgr.Acquire(tx, l.contains, core.VVec(p)); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.Contains(p), nil
}

var _ Index = (*LockedTree)(nil)
