package abslock

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// KeyFunc evaluates a pure key function (such as a partition map) used by
// keyed lock acquisitions.
type KeyFunc func(core.Value) core.Value

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

// stripe is one shard of the datum-lock table: its own mutex, lock map,
// per-transaction held lists, and free lists of recycled dlocks and held
// lists so steady-state acquisition does not allocate. The padding keeps
// adjacent stripes on separate cache lines.
//
// A datum is named by its 64-bit hash alone, here as in the fast cells:
// spellings of one key (5 and 5.0) hash alike and share a lock, two
// datums whose hashes collide share one too (a conservative refusal at
// 2⁻⁶⁴ per pair), and neither the table nor a held list retains a value.
// Locks with no holder are deleted, so distinct-heavy workloads don't
// grow the map without bound.
type stripe struct {
	mu       sync.Mutex
	data     map[uint64]*dlock
	held     map[*engine.Tx][]uint64
	free     []*dlock
	freeHeld [][]uint64 // recycled per-tx held lists
	mgr      *Manager   // back-pointer for the shared prefilter
	_        [48]byte
}

// maxFreeDlocks caps each stripe's dlock free list.
const maxFreeDlocks = 64

// Manager enforces a synthesized abstract-locking scheme at run time. It
// keeps one multi-mode lock per datum (argument or return value seen so
// far) plus the whole-structure lock, with per-transaction hold masks.
// Mode compatibility is checked by intersecting the acquired mode's
// incompatibility mask with other holders' mode masks. Locks are
// released when the owning transaction commits or aborts (all abstract
// locks are held to transaction end, per §3.2).
//
// The datum-lock table is striped: keys hash to one of a power-of-two
// number of stripes (sized from GOMAXPROCS), each with its own mutex, so
// disjoint acquisitions proceed in parallel instead of serializing on
// one global mutex. The ds-lock is the datum of the reserved hash dsHash
// and takes the same routes. Held lists are partitioned per stripe, so
// releasing a transaction locks only the stripes it actually touched.
// Acquisitions are taken one at a time in scheme order — no two stripe
// mutexes are ever held together, so lock-order inversion is impossible.
type Manager struct {
	scheme   *Scheme
	methods  map[string]*Method
	incompat []uint64 // per mode: mask of conflicting modes
	// covers[m] is the mask of modes h whose incompatibility row contains
	// m's: a transaction holding h on a datum may be granted m on it with
	// no further check (see acquireDatum).
	covers []uint64

	mask    uint32
	stripes []stripe

	// fast is the pre-stripe conflict-signature prefilter table (see
	// prefilter.go): datum acquisitions whose cell is unoccupied take
	// their lock without a stripe mutex.
	fast *fastTable

	tele *telemetry.Detector // mode-acquisition counters (mode vocabulary)
}

// dsHash names the whole-structure lock among the datum hashes, which
// are v.Hash() ^ fnv64(key function name) of the value a mode guards.
const dsHash = ^uint64(0)

// numStripes picks the stripe count: the smallest power of two covering
// 4× GOMAXPROCS (over-provisioning reduces collision-induced contention),
// capped to keep idle managers small.
func numStripes() int {
	target := runtime.GOMAXPROCS(0) * 4
	n := 1
	for n < target && n < 256 {
		n <<= 1
	}
	return n
}

// NewManager creates a lock manager for scheme. keys must provide an
// implementation for every key function named by the scheme's
// acquisitions (nil is fine for purely identity schemes). Schemes with
// more than 64 modes are rejected; Reduce() keeps real schemes far below
// that.
func NewManager(scheme *Scheme, keys map[string]KeyFunc) *Manager {
	return newManagerWithStripes(scheme, keys, numStripes())
}

// newManagerWithStripes is the constructor with an explicit stripe
// count (a power of two). Tests use a single-stripe manager as the
// reference oracle for the striped one.
func newManagerWithStripes(scheme *Scheme, keys map[string]KeyFunc, n int) *Manager {
	if len(scheme.Modes) > maxModes {
		panic(fmt.Sprintf("abslock: scheme has %d modes; the manager supports ≤ %d (reduce the scheme or split the ADT)", len(scheme.Modes), maxModes))
	}
	m := &Manager{
		scheme:   scheme,
		methods:  make(map[string]*Method, len(scheme.Acquire)),
		incompat: make([]uint64, len(scheme.Modes)),
		covers:   make([]uint64, len(scheme.Modes)),
		mask:     uint32(n - 1),
		stripes:  make([]stripe, n),
		fast:     newFastTable(defaultFastSlots),
	}
	for i := range m.stripes {
		m.stripes[i].data = map[uint64]*dlock{}
		m.stripes[i].held = map[*engine.Tx][]uint64{}
		m.stripes[i].mgr = m
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
		m.methods[name] = compileMethod(name, acqs, keys)
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

func (m *Manager) stripeFor(h uint64) *stripe {
	return &m.stripes[uint32(h>>32^h)&m.mask]
}

// Method is one method's acquisitions compiled against a manager: split
// by phase, key functions and key-name hashes resolved. Wrappers that
// guard a fixed method set fetch their handles once (Manager.Method) and
// acquire through them, skipping the per-call name lookup and the
// argument-vector copy of the string-keyed API.
type Method struct {
	name      string
	pre, post []compiledAcq
}

// compiledAcq is one Acquisition with its key function resolved.
type compiledAcq struct {
	Acquisition
	keyFn KeyFunc // nil for identity, and for a key the caller never supplied
	keyH  uint64  // fnv64(Key); 0 for identity
}

func compileMethod(name string, acqs []Acquisition, keys map[string]KeyFunc) *Method {
	h := &Method{name: name}
	for _, a := range acqs {
		c := compiledAcq{Acquisition: a}
		if a.Key != "" {
			c.keyFn, c.keyH = keys[a.Key], fnv64(a.Key)
		}
		if a.After || a.Target == TargetRet {
			h.post = append(h.post, c)
		} else {
			h.pre = append(h.pre, c)
		}
	}
	return h
}

// Method returns the compiled handle for a method of the scheme, or nil
// for a method that acquires nothing (a nil handle is valid to acquire
// through).
func (m *Manager) Method(name string) *Method { return m.methods[name] }

// Acquire takes the ds-lock and argument locks for an invocation of h's
// method with args, in the scheme's modes. On conflict it returns an
// error satisfying engine.IsConflict and leaves any locks it already took
// held (they are released when the transaction aborts).
func (m *Manager) Acquire(tx *engine.Tx, h *Method, args ...core.Value) error {
	return m.acquire(tx, h, args, nil)
}

// AcquirePost takes the post-execution locks: return-value targets plus
// any guarded acquisitions whose guard inspects the return value. A
// conflict here means the invocation must be rolled back by the
// transaction's undo log.
func (m *Manager) AcquirePost(tx *engine.Tx, h *Method, ret core.Value, args ...core.Value) error {
	return m.acquire(tx, h, args, &ret)
}

// PreAcquire is Acquire by method name.
func (m *Manager) PreAcquire(tx *engine.Tx, method string, args core.Vec) error {
	return m.acquire(tx, m.methods[method], args.Slice(), nil)
}

// PostAcquire is AcquirePost by method name.
func (m *Manager) PostAcquire(tx *engine.Tx, method string, args core.Vec, ret core.Value) error {
	return m.acquire(tx, m.methods[method], args.Slice(), &ret)
}

// Invoke guards a complete method invocation: pre-acquire, execute,
// post-acquire. exec runs only if the pre-acquisitions succeed.
func (m *Manager) Invoke(tx *engine.Tx, method string, args core.Vec, exec func() core.Value) (core.Value, error) {
	h := m.methods[method]
	if err := m.acquire(tx, h, args.Slice(), nil); err != nil {
		return core.Value{}, err
	}
	ret := exec()
	return ret, m.acquire(tx, h, args.Slice(), &ret)
}

// admission tallies how one acquire call's datum acquisitions were
// granted, for the per-invocation telemetry counters.
type admission struct {
	reentrant  int  // granted against the transaction's own fast hold
	fast, slow bool // some acquisition published a fast slot / reached a stripe
}

// acquire is the one admission path: the pre-phase acquisitions of h
// when ret is nil, the post-phase ones otherwise, resolved and taken one
// at a time.
func (m *Manager) acquire(tx *engine.Tx, h *Method, args []core.Value, ret *core.Value) error {
	if ret == nil {
		m.tele.IncInvocation()
	}
	if h == nil {
		return nil
	}
	acqs := h.pre
	if ret != nil {
		acqs = h.post
	}
	var adm admission
	var err error
	for i := 0; i < len(acqs) && err == nil; i++ {
		var mode int
		var datum uint64
		if mode, datum, err = acqs[i].resolve(h.name, args, ret); err == nil {
			err = m.acquireDatum(tx, datum, mode, &adm)
		}
	}
	m.tele.ReentrantHitN(adm.reentrant)
	if adm.slow {
		m.tele.CascadeFilterHit()
	} else if adm.fast {
		m.tele.CascadeFastAdmit()
	}
	return err
}

// resolve evaluates one acquisition against an invocation, outside any
// lock: its mode (guards applied) and the hash of the datum it locks —
// dsHash, or that of the argument or return value it names. A keyed mode
// locks that value's image under the key function; one the caller of
// NewManager never supplied is refused here.
func (a *compiledAcq) resolve(method string, args []core.Value, ret *core.Value) (mode int, datum uint64, err error) {
	mode = a.Mode
	if a.Guard != nil {
		inv := core.MakeInvocation(method, core.MakeVec(args...), core.Value{})
		if ret != nil {
			inv.Ret = *ret
		}
		weak, err := core.Eval(a.Guard, core.OwnEnv(inv))
		if err != nil {
			return 0, 0, fmt.Errorf("abslock: evaluating guard for %s: %w", method, err)
		}
		if weak {
			mode = a.WeakMode
		}
	}
	if a.Target == TargetDS {
		return mode, dsHash, nil
	}
	if a.Key != "" && a.keyFn == nil {
		return 0, 0, fmt.Errorf("abslock: no implementation for key function %q", a.Key)
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
		return mode, a.keyFn(*v).Hash() ^ a.keyH, nil
	}
	return mode, v.Hash() ^ a.keyH, nil
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
// Otherwise the hold is widened in place: the new mode mask is stored
// into the cell and then its stripe count is probed; a non-zero count
// means some stripe acquirer published first, so the mask reverts and
// the stripe decides. A stripe acquirer increments the count before it
// inspects the cell, so of an upgrader and a racing acquirer at least
// one sees the other.
//
// A datum the transaction does not hold claims its cell when the cell is
// free and no stripe hold maps to it (publish, then probe), and takes
// the stripe path when it is not — including when the cell's owner is
// this transaction, for another datum.
func (m *Manager) acquireDatum(tx *engine.Tx, h uint64, mode int, adm *admission) error {
	ft := m.fast
	c := ft.cellFor(h)
	bit := uint64(1) << uint(mode)
	own := c.owner.Load() == tx.ID() && c.hash.Load() == h
	var held uint64
	if own {
		if held = c.modes.Load(); held&m.covers[mode] != 0 {
			m.tele.ModeAcquire(uint16(mode))
			adm.reentrant++
			return nil
		}
	}
	t0 := telemetry.LatClock()
	granted := false
	if own {
		// The pre-probe keeps a hopeless upgrade from flashing a wider
		// mask at compatible stripe acquirers.
		if c.stripe.Load() == 0 {
			c.modes.Store(held | bit)
			if granted = c.stripe.Load() == 0; granted {
				adm.reentrant++
			} else {
				c.modes.Store(held)
			}
		}
	} else if granted = ft.claim(tx, c, h, bit); granted {
		adm.fast = true
	}
	t0 = telemetry.StageObserve(tx.Worker(), telemetry.StageSigFilter, t0)
	if granted {
		m.tele.ModeAcquire(uint16(mode))
		return nil
	}
	adm.slow = true
	s := m.stripeFor(h)
	s.mu.Lock()
	err := m.acquireInStripe(s, tx, h, mode)
	s.mu.Unlock()
	telemetry.StageObserve(tx.Worker(), telemetry.StagePrecise, t0)
	return err
}

// acquireInStripe must run with s.mu held.
func (m *Manager) acquireInStripe(s *stripe, tx *engine.Tx, h uint64, mode int) error {
	l := s.data[h]
	fresh := l == nil
	if fresh {
		if n := len(s.free); n > 0 {
			l = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
		} else {
			l = &dlock{}
		}
		s.data[h] = l
	}
	prev, err := m.lockModes(tx, l, mode)
	if err != nil {
		if fresh {
			s.recycle(h, l) // don't leave an empty lock behind
		}
		return err
	}
	if prev == 0 {
		// Publish the hold into the shared prefilter before scanning
		// for a fast-path holder: a concurrent fast acquirer either sees
		// this increment and diverts to the stripes, or published its
		// cell early enough for the scan below to find it.
		m.fast.cellFor(h).stripe.Add(1)
		lst, hooked := s.held[tx]
		if !hooked {
			if n := len(s.freeHeld); n > 0 {
				lst = s.freeHeld[n-1]
				s.freeHeld[n-1] = nil
				s.freeHeld = s.freeHeld[:n-1]
			}
			tx.OnReleaser(s)
		}
		s.held[tx] = append(lst, h)
	}
	if err := m.conflictScan(tx, h, mode); err != nil {
		// The scan found a conflicting fast-path holder: take back the
		// hold recorded above so a refused acquisition leaves nothing
		// behind — exactly as a lockModes refusal leaves nothing behind.
		m.retractStripeAcq(s, tx, h, l, prev)
		return err
	}
	return nil
}

// retractStripeAcq undoes one just-recorded stripe acquisition after its
// fast-table conflict scan refused it. For a brand-new holder (prev 0)
// the holder record, held-list entry, and stripe-count increment all go;
// for a mode upgrade the holder's mode mask reverts to prev. Must run
// with s.mu held.
func (m *Manager) retractStripeAcq(s *stripe, tx *engine.Tx, h uint64, l *dlock, prev uint64) {
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
	lst := s.held[tx]
	s.held[tx] = lst[:len(lst)-1]
	if len(l.holders) == 0 {
		s.recycle(h, l)
	}
}

// lockModes adds mode to tx's hold on l and returns the modes tx held on
// it before, 0 for a new holder. The caller must hold l's stripe mutex.
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
	m.tele.ModeAcquire(uint16(mode))
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
func (s *stripe) recycle(h uint64, l *dlock) {
	delete(s.data, h)
	for i := range l.holders {
		l.holders[i] = holder{}
	}
	l.holders = l.holders[:0]
	if len(s.free) < maxFreeDlocks {
		s.free = append(s.free, l)
	}
}

// ReleaseTx drops everything tx holds in this stripe. The stripe itself
// is the transaction's release hook (engine.Releaser), installed on the
// transaction's first acquisition there, so registration allocates no
// closure.
func (s *stripe) ReleaseTx(tx *engine.Tx) {
	t0 := telemetry.LatClock()
	defer telemetry.StageObserve(tx.Worker(), telemetry.StageCommit, t0)
	s.mu.Lock()
	lst := s.held[tx]
	for _, h := range lst {
		l := s.data[h]
		dropHolder(l, tx)
		s.mgr.fast.cellFor(h).stripe.Add(-1)
		if len(l.holders) == 0 {
			s.recycle(h, l)
		}
	}
	if lst != nil {
		s.freeHeld = append(s.freeHeld, lst[:0])
	}
	delete(s.held, tx)
	s.mu.Unlock()
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
// the fast path and in a stripe at once — by two compatible
// transactions, or by one whose in-place upgrade was refused — counts
// once.
func (m *Manager) HeldLocks() int {
	inStripe := func(h uint64) bool {
		s := m.stripeFor(h)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.data[h] != nil
	}
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n += len(s.data)
		s.mu.Unlock()
	}
	if inStripe(dsHash) {
		n--
	}
	// A hash has one cell, so no two live cells hold the same datum.
	for i := range m.fast.cells {
		c := &m.fast.cells[i]
		o := c.owner.Load()
		h := c.hash.Load()
		if o == 0 || c.owner.Load() != o {
			continue // free, or released under the read
		}
		if h != dsHash && !inStripe(h) {
			n++
		}
	}
	return n
}
