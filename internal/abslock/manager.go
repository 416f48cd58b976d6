package abslock

import (
	"fmt"
	"math/bits"
	"sync"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// KeyFunc evaluates a pure key function (such as a partition map) for
// keyed lock acquisitions, returning the 64-bit identity of the key's
// image: equal images must give equal words (two images that share a
// word share a lock, which can only add a refusal).
type KeyFunc func(core.Value) uint64

// maxModes bounds a manageable scheme: mode hold-sets and incompatibility
// rows are 64-bit masks, which comfortably covers every scheme in this
// repository (reduced schemes have a handful of modes; even full
// pre-reduction schemes stay well under 64).
const maxModes = 64

// holder records one transaction's hold on a lock as a bitmask of modes.
type holder struct {
	tx    *engine.Tx
	modes uint64
}

// dlock is the multi-mode lock of one datum.
type dlock struct {
	holders []holder
}

// maxFreeDlocks caps the lock table's dlock free list.
const maxFreeDlocks = 64

// Manager enforces a synthesized abstract-locking scheme at run time. It
// keeps one multi-mode lock per datum (argument or return value seen so
// far) plus the whole-structure lock, with per-transaction hold masks.
// Mode compatibility is checked by intersecting the acquired mode's
// incompatibility mask with other holders' mode masks. Locks are
// released when the owning transaction commits or aborts (all abstract
// locks are held to transaction end, per §3.2).
//
// A hold takes one of two routes. A datum whose fast cell is free is
// claimed there with one CAS (prefilter.go), which is how disjoint
// access runs; everything else — shared and colliding datums, upgrades
// a cell cannot take — is the stripe route: one mutex-guarded lock
// table. The ds-lock is the datum of the reserved hash dsHash and takes
// the same routes. The manager is each transaction's single release
// hook, registered with its first hold on either route, and a
// transaction that never reached the table releases without its mutex.
type Manager struct {
	scheme   *Scheme
	methods  map[string]*Method
	incompat []uint64 // per mode: mask of conflicting modes
	// covers[m] is the mask of modes h whose incompatibility row contains
	// m's: a transaction holding h on a datum may be granted m on it with
	// no further check (see acquireDatum).
	covers []uint64

	// The stripe route's lock table, under mu: the lock of each datum
	// held there, each transaction's held list, and free lists of
	// recycled dlocks and held lists so steady-state acquisition does
	// not allocate. A datum is named by its 64-bit hash alone, here as in
	// the fast cells: spellings of one key (5 and 5.0) hash alike and
	// share a lock, two datums whose hashes collide share one too (a
	// conservative refusal at 2⁻⁶⁴ per pair), and neither the table nor
	// a held list retains a value. Locks with no holder are deleted, so
	// distinct-heavy workloads don't grow the map without bound.
	mu       sync.Mutex
	data     map[uint64]*dlock
	held     map[*engine.Tx][]uint64
	free     []*dlock
	freeHeld [][]uint64

	// fast is the conflict-signature prefilter table (see prefilter.go):
	// datum acquisitions whose cell is unoccupied take their lock
	// without the table mutex.
	fast *fastTable

	tele *telemetry.Detector // mode-acquisition counters (mode vocabulary)
}

// dsHash names the whole-structure lock among the datum hashes that
// compiledAcq.resolve computes.
const dsHash = ^uint64(0)

// stripeHeld marks a transaction's hold word (see holds) once the
// transaction has a hold on the stripe route. The word's low 32 bits
// head its chain of fast cells.
const stripeHeld = 1 << 63

// NewManager creates a lock manager for scheme. keys must provide an
// implementation for every key function named by the scheme's
// acquisitions (nil is fine for purely identity schemes); a missing one
// panics here, as do more than 64 modes (Reduce() keeps real schemes far
// below that).
func NewManager(scheme *Scheme, keys map[string]KeyFunc) *Manager {
	if len(scheme.Modes) > maxModes {
		panic(fmt.Sprintf("abslock: scheme has %d modes; the manager supports ≤ %d (reduce the scheme or split the ADT)", len(scheme.Modes), maxModes))
	}
	m := &Manager{
		scheme:   scheme,
		methods:  make(map[string]*Method, len(scheme.Acquire)),
		incompat: make([]uint64, len(scheme.Modes)),
		covers:   make([]uint64, len(scheme.Modes)),
		data:     map[uint64]*dlock{},
		held:     map[*engine.Tx][]uint64{},
		fast:     newFastTable(defaultFastSlots),
	}
	for i := range scheme.Modes {
		var mask uint64
		for j := range scheme.Modes {
			if scheme.Incompat[i][j] {
				mask |= 1 << uint(j)
			}
		}
		m.incompat[i] = mask
	}
	for i, row := range m.incompat {
		for j, held := range m.incompat {
			if row&^held == 0 {
				m.covers[i] |= 1 << uint(j)
			}
		}
	}
	for name, acqs := range scheme.Acquire {
		m.methods[name] = compileMethod(scheme.ADT, acqs, keys)
	}
	labels := make([]string, len(scheme.Modes))
	for i, mode := range scheme.Modes {
		labels[i] = mode.String()
	}
	m.tele = telemetry.Register("abslock", scheme.ADT, labels)
	return m
}

// Telemetry returns the manager's telemetry detector, whose snapshot
// reports per-mode acquisition/wait counters and per-mode-pair
// conflicts.
func (m *Manager) Telemetry() *telemetry.Detector { return m.tele }

// Scheme returns the scheme the manager enforces.
func (m *Manager) Scheme() *Scheme { return m.scheme }

// Covers reports whether holding mode held on a datum entitles the
// holder to mode want on it without a further check: every mode that
// conflicts with want conflicts with held too. Intended for tests and
// diagnostics.
func (m *Manager) Covers(held, want int) bool { return m.covers[want]>>uint(held)&1 != 0 }

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Method is one method's acquisitions compiled against a manager: split
// by phase, key functions and key-name hashes resolved. It is the only
// way to acquire: callers fetch their handles once (Manager.Method), so a
// misspelt method name fails at construction instead of acquiring
// nothing.
type Method struct {
	pre, post []compiledAcq
}

// compiledAcq is one Acquisition with its key function resolved.
type compiledAcq struct {
	Acquisition
	keyFn KeyFunc // nil for identity
	keyH  uint64  // fnv64(Key); 0 for identity
}

func compileMethod(adt string, acqs []Acquisition, keys map[string]KeyFunc) *Method {
	h := &Method{}
	for _, a := range acqs {
		c := compiledAcq{Acquisition: a}
		if a.Key != "" {
			if c.keyFn = keys[a.Key]; c.keyFn == nil {
				panic(fmt.Sprintf("abslock: %s: no implementation for key function %q", adt, a.Key))
			}
			c.keyH = fnv64(a.Key)
		}
		if a.Target == TargetRet {
			h.post = append(h.post, c)
		} else {
			h.pre = append(h.pre, c)
		}
	}
	return h
}

// Method returns the compiled handle for a method of the scheme; it
// panics on a name the scheme does not list.
func (m *Manager) Method(name string) *Method {
	h, ok := m.methods[name]
	if !ok {
		panic(fmt.Sprintf("abslock: %s has no method %q", m.scheme.ADT, name))
	}
	return h
}

// Acquire takes the ds-lock and argument locks for an invocation of h's
// method with args, in the scheme's modes. On conflict it returns an
// error satisfying engine.IsConflict and leaves any locks it already took
// held (they are released when the transaction aborts).
func (m *Manager) Acquire(tx *engine.Tx, h *Method, args ...core.Value) error {
	return m.acquire(tx, h, args, nil)
}

// AcquirePost takes the post-execution locks, those on the return value.
// A conflict here means the invocation must be rolled back by the
// transaction's undo log.
func (m *Manager) AcquirePost(tx *engine.Tx, h *Method, ret core.Value, args ...core.Value) error {
	return m.acquire(tx, h, args, &ret)
}

// Invoke guards a complete invocation of h's method: pre-acquire,
// execute, post-acquire. exec runs only if the pre-acquisitions succeed.
func (m *Manager) Invoke(tx *engine.Tx, h *Method, args core.Vec, exec func() core.Value) (core.Value, error) {
	if err := m.acquire(tx, h, args.Slice(), nil); err != nil {
		return core.Value{}, err
	}
	ret := exec()
	return ret, m.acquire(tx, h, args.Slice(), &ret)
}

// acquire is the one admission path: the pre-phase acquisitions of h
// when ret is nil, the post-phase ones otherwise, resolved and taken one
// at a time.
func (m *Manager) acquire(tx *engine.Tx, h *Method, args []core.Value, ret *core.Value) error {
	t := tx.Tally(m.tele)
	acqs := h.post
	if ret == nil {
		t.Invocations++
		acqs = h.pre
	}
	for i := range acqs {
		if err := m.acquireDatum(tx, t, acqs[i].resolve(args, ret), acqs[i].Mode); err != nil {
			return err
		}
	}
	return nil
}

// resolve evaluates one acquisition against an invocation, outside any
// lock: the hash of the datum it locks — dsHash, or that of the argument
// or return value it names. A keyed mode locks that value's image under
// the key function, named by the word the function returns.
func (a *compiledAcq) resolve(args []core.Value, ret *core.Value) uint64 {
	if a.Target == TargetDS {
		return dsHash
	}
	v := ret
	if a.Target == TargetArg {
		if a.Arg < len(args) {
			v = &args[a.Arg]
		} else {
			v = new(core.Value) // a missing argument locks the nil value
		}
	}
	if a.keyFn != nil {
		return a.keyFn(*v) ^ a.keyH
	}
	if h, ok := v.KeyHash(); ok {
		return h ^ a.keyH
	}
	return v.Hash() ^ a.keyH
}

// acquireDatum takes one datum lock in mode for tx, by the cheapest
// sound route.
//
// A transaction that already owns the datum's fast cell is resolved
// against its own hold. If a held mode covers the requested one
// (incompat[mode] ⊆ incompat[held]) the grant is immediate and touches
// no shared state: every other holder is compatible with the held mode
// and hence with this one, and any later acquirer that conflicts with
// this one conflicts with the held mode and is refused on that account.
// Otherwise the hold is widened in place: the widened state word is
// stored into the cell and then its stripe count is probed; a non-zero
// count means some stripe acquirer published first, so the word reverts
// and the stripe decides. A stripe acquirer increments the count before
// it inspects the cell, so of an upgrader and a racing acquirer at least
// one sees the other.
//
// A datum the transaction does not hold claims its cell when the cell is
// free and no stripe hold maps to it (publish, then probe), and takes
// the stripe path when it is not — including when the cell's owner is
// this transaction, for another datum. A mode the cell's word cannot
// hold (cellModes and up) takes the stripe path whenever it is not
// covered.
//
// It counts its route into t (a reentrant grant, a cell claimed, or a
// stripe reached) and a grant once it stands.
func (m *Manager) acquireDatum(tx *engine.Tx, t *telemetry.Tally, h uint64, mode int) error {
	ft := m.fast
	c := ft.cellFor(h)
	bit := uint64(1) << uint(mode)
	st := c.state.Load()
	own := cellOwner(st) == tx.ID() && c.hash.Load() == h
	if own && st&cellModeMask&m.covers[mode] != 0 {
		t.ModeAcquire(uint16(mode))
		t.ReentrantHits++
		return nil
	}
	t0 := telemetry.TxClock(tx.ID())
	granted := false
	switch {
	case mode >= cellModes:
		// No room in the word: the table decides.
	case own:
		// The pre-probe keeps a hopeless upgrade from flashing a wider
		// mask at compatible stripe acquirers.
		if c.stripe.Load() == 0 {
			c.state.Store(st | bit)
			if granted = c.stripe.Load() == 0; granted {
				t.ReentrantHits++
			} else {
				c.state.Store(st)
			}
		}
	default:
		if granted = m.claim(tx, c, h, bit); granted {
			t.FastAdmits++
		}
	}
	t0 = telemetry.StageObserve(tx.Worker(), telemetry.StageSigFilter, t0)
	if granted {
		t.ModeAcquire(uint16(mode))
		return nil
	}
	t.FilterHits++
	m.mu.Lock()
	err := m.acquireInStripe(tx, h, mode)
	m.mu.Unlock()
	telemetry.StageObserve(tx.Worker(), telemetry.StagePrecise, t0)
	if err == nil {
		t.ModeAcquire(uint16(mode))
	}
	return err
}

// acquireInStripe must run with m.mu held.
func (m *Manager) acquireInStripe(tx *engine.Tx, h uint64, mode int) error {
	l := m.data[h]
	fresh := l == nil
	if fresh {
		if n := len(m.free); n > 0 {
			l = m.free[n-1]
			m.free[n-1] = nil
			m.free = m.free[:n-1]
		} else {
			l = &dlock{}
		}
		m.data[h] = l
	}
	prev, err := m.lockModes(tx, l, mode)
	if err != nil {
		if fresh {
			m.recycle(h, l) // don't leave an empty lock behind
		}
		return err
	}
	c := m.fast.cellFor(h)
	if prev == 0 {
		// Publish the hold into the shared prefilter before scanning
		// for a fast-path holder: a concurrent fast acquirer either sees
		// this increment and diverts to the stripe route, or published
		// its cell early enough for the scan below to find it.
		c.stripe.Add(1)
		lst, listed := m.held[tx]
		if !listed {
			if n := len(m.freeHeld); n > 0 {
				lst = m.freeHeld[n-1]
				m.freeHeld[n-1] = nil
				m.freeHeld = m.freeHeld[:n-1]
			}
			*m.holds(tx) |= stripeHeld
		}
		m.held[tx] = append(lst, h)
	}
	if err := m.conflictScan(tx, c, c.state.Load(), h, mode); err != nil {
		// The scan found a conflicting fast-path holder: take back the
		// hold recorded above so a refused acquisition leaves nothing
		// behind — exactly as a lockModes refusal leaves nothing behind.
		m.retractStripeAcq(tx, h, l, prev)
		return err
	}
	return nil
}

// retractStripeAcq undoes one just-recorded stripe acquisition after its
// fast-table conflict scan refused it. For a brand-new holder (prev 0)
// the holder record, held-list entry, and stripe-count increment all go;
// for a mode upgrade the holder's mode mask reverts to prev. Must run
// with m.mu held.
func (m *Manager) retractStripeAcq(tx *engine.Tx, h uint64, l *dlock, prev uint64) {
	if prev != 0 {
		for i := range l.holders {
			if l.holders[i].tx == tx {
				l.holders[i].modes = prev
				break
			}
		}
		return
	}
	dropHolder(l, tx)
	m.fast.cellFor(h).stripe.Add(-1)
	lst := m.held[tx]
	m.held[tx] = lst[:len(lst)-1]
	if len(l.holders) == 0 {
		m.recycle(h, l)
	}
}

// lockModes adds mode to tx's hold on l and returns the modes tx held on
// it before, 0 for a new holder. The caller must hold m.mu.
func (m *Manager) lockModes(tx *engine.Tx, l *dlock, mode int) (prev uint64, err error) {
	mask := m.incompat[mode]
	var own *holder
	for i := range l.holders {
		h := &l.holders[i]
		if h.tx == tx {
			own = h
			continue
		}
		if conflicting := h.modes & mask; conflicting != 0 {
			return 0, m.refuse(tx, h.tx.ID(), conflicting, mode)
		}
	}
	if own != nil {
		prev = own.modes
		own.modes |= 1 << uint(mode)
		return prev, nil
	}
	l.holders = append(l.holders, holder{tx: tx, modes: 1 << uint(mode)})
	return 0, nil
}

// refuse counts and reports tx's acquisition of mode refused by holder's
// hold, of whose modes conflicting (non-empty) are incompatible with it.
// The conflict is attributed to (held mode, acquiring mode); with several
// conflicting held modes, the lowest-numbered one.
func (m *Manager) refuse(tx *engine.Tx, holder, conflicting uint64, mode int) error {
	held := uint16(bits.TrailingZeros64(conflicting))
	m.tele.ModeWait(uint16(mode))
	m.tele.Conflict(held, uint16(mode))
	if telemetry.TraceEnabled() {
		telemetry.EmitConflict(tx.Worker(), tx.ID(), tx.Item(), m.tele.ID(), held, uint16(mode))
	}
	return engine.ConflictBy(holder, "abstract lock held in a conflicting mode: %s acquiring %s",
		m.scheme.ADT, &m.scheme.Modes[mode]) // the scheme is immutable: a pointer boxes without copying
}

// recycle takes the holderless lock l of datum h out of the table.
func (m *Manager) recycle(h uint64, l *dlock) {
	delete(m.data, h)
	for i := range l.holders {
		l.holders[i] = holder{}
	}
	l.holders = l.holders[:0]
	if len(m.free) < maxFreeDlocks {
		m.free = append(m.free, l)
	}
}

// holds returns tx's hold word, registering the manager as tx's release
// hook on the transaction's first hold.
func (m *Manager) holds(tx *engine.Tx) *uint64 {
	p, isNew := tx.Attach(m)
	if isNew {
		tx.OnReleaser(m)
	}
	return p
}

// ReleaseTx drops every lock tx holds (engine.Releaser): its fast cells,
// each link read before its cell is freed since the next owner may
// overwrite it at once, and then, only if tx reached the stripe route,
// its entries in the table.
func (m *Manager) ReleaseTx(tx *engine.Tx) {
	w := *tx.AttachedWord(m)
	t0 := telemetry.TxClock(tx.ID())
	for link := uint32(w); link != 0; {
		c := &m.fast.cells[link-1]
		link = c.txNext
		c.state.Store(0)
	}
	if w&stripeHeld != 0 {
		m.mu.Lock()
		lst := m.held[tx]
		for _, h := range lst {
			l := m.data[h]
			dropHolder(l, tx)
			m.fast.cellFor(h).stripe.Add(-1)
			if len(l.holders) == 0 {
				m.recycle(h, l)
			}
		}
		m.freeHeld = append(m.freeHeld, lst[:0])
		delete(m.held, tx)
		m.mu.Unlock()
	}
	telemetry.StageObserve(tx.Worker(), telemetry.StageCommit, t0)
}

func dropHolder(l *dlock, tx *engine.Tx) {
	for i := range l.holders {
		if l.holders[i].tx == tx {
			last := len(l.holders) - 1
			l.holders[i] = l.holders[last]
			l.holders = l.holders[:last]
			return
		}
	}
}

// HeldLocks reports how many distinct data locks are currently held
// (for tests and diagnostics); the ds-lock is not one. A datum held on
// the fast path and on the stripe route at once — by two compatible
// transactions, or by one whose in-place upgrade was refused — counts
// once.
func (m *Manager) HeldLocks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.data)
	if m.data[dsHash] != nil {
		n--
	}
	// A hash has one cell, so no two live cells hold the same datum.
	for i := range m.fast.cells {
		c := &m.fast.cells[i]
		st := c.state.Load()
		h := c.hash.Load()
		if st == 0 || !ownerStable(c, st) {
			continue // free, or released under the read
		}
		if h != dsHash && m.data[h] == nil {
			n++
		}
	}
	return n
}
