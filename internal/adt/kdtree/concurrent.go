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
	log undoLog // guarded by mu
}

// NewML creates an empty kd-ml tree.
func NewML() *MLTree { return &MLTree{t: New(), mem: abslock.NewMemory()} }

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
			return m.mem.Write(tx, n.id)
		}
		return m.mem.Read(tx, n.id)
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
		m.log.record(tx, m, p, true)
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
		m.log.record(tx, m, p, false)
	}
	return ok, nil
}

// UndoTx reverts tx's mutations, newest first. Registered as an
// engine.Undoer by the transaction's first mutation.
func (m *MLTree) UndoTx(tx *engine.Tx) {
	m.mu.Lock()
	m.log.undo(tx, m, m.t)
	m.mu.Unlock()
}

// ReleaseTx recycles tx's mutation records. Registered as an
// engine.Releaser by the transaction's first mutation.
func (m *MLTree) ReleaseTx(tx *engine.Tx) {
	m.mu.Lock()
	m.log.release(tx, m)
	m.mu.Unlock()
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
	log undoLog // guarded by mu
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
	if err := l.mgr.Acquire(tx, l.add, core.VVec(p)); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.t.Add(p) {
		return false, nil
	}
	l.log.record(tx, l, p, true)
	return true, nil
}

// Remove deletes p under the lock discipline.
func (l *LockedTree) Remove(tx *engine.Tx, p Point) (bool, error) {
	if err := l.mgr.Acquire(tx, l.remove, core.VVec(p)); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.t.Remove(p) {
		return false, nil
	}
	l.log.record(tx, l, p, false)
	return true, nil
}

// UndoTx reverts tx's mutations, newest first. Registered as an
// engine.Undoer by the transaction's first mutation.
func (l *LockedTree) UndoTx(tx *engine.Tx) {
	l.mu.Lock()
	l.log.undo(tx, l, l.t)
	l.mu.Unlock()
}

// ReleaseTx recycles tx's mutation records. Registered as an
// engine.Releaser by the transaction's first mutation.
func (l *LockedTree) ReleaseTx(tx *engine.Tx) {
	l.mu.Lock()
	l.log.release(tx, l)
	l.mu.Unlock()
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
