package abslock

import (
	"sync/atomic"

	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// This file applies the lattice cascade's stage-1 conflict-signature
// prefilter to abstract locking: a datum acquisition whose cell of a
// direct-mapped table is unoccupied takes its lock there, without
// touching a stripe mutex. A cell is indexed by the datum-key hash and
// holds at most one fast hold (owner, hash, mode mask) beside a count of
// the stripe holds that map to it. Each side publishes before it probes:
// a fast acquirer writes its hold and then reads the stripe count, a
// stripe acquirer increments the count (see acquireInStripe) and then
// reads the hold, so of two racing conflicting acquirers at least one
// observes the other. The ds-lock is the datum of hash dsHash, no
// different from any other here.
//
// Fast admission demands a free cell and a zero stripe count, so
// compatible sharing of one datum (two readers of the same key) always
// runs the stripe path, and so does a datum whose cell another datum
// occupies — the fast path accelerates the disjoint-access case the
// striping was built for, without changing a single verdict: decisions
// remain those of the mode-incompatibility relation. The owner of a cell
// re-acquires its datum against the cell itself (Manager.acquireDatum):
// covered modes with no shared write at all, wider ones by widening the
// cell's mask in place.

// defaultFastSlots sizes the fast-hold table (a power of two). At 32
// bytes a cell the table is 128 KiB per manager, and a manager is built
// and zeroed per guarded structure, so the size is set-up time.
const defaultFastSlots = 1 << 12

// cell is one entry of the fast-hold table.
//
// Its owner writes hash and then modes after winning owner, and clears
// modes before owner on release, so a claimed cell starts with an empty
// mask and a non-zero mask read under one owner comes with that owner's
// hash. modes is outside the seqlock: the owner widens it in place (an
// upgrade, reverted if refused) without touching owner. It is one atomic
// word, every value a reader can load is a mask the owner did publish,
// and the upgrade is ordered against readers by publish-then-probe on
// the stripe count.
type cell struct {
	// owner is the holder's transaction id, 0 while the cell is free.
	// Ids are never reused, so a reader that loads the same owner around
	// its reads of the other fields saw that transaction's claim, not a
	// recycled cell. (A transaction may claim a cell again after its own
	// retracted claim; DESIGN.md §8 has why a reader that straddles both
	// can at worst be refused, never miss a granted hold.)
	//commvet:seqlock protects=hash
	owner  atomic.Uint64
	hash   atomic.Uint64
	modes  atomic.Uint64
	stripe atomic.Int32 // stripe holds on datums that map here
	txNext uint32       // owner's release chain: cell+1, 0 terminates; owner-only
}

// fastTable is the lock-free fast-hold store shared by all stripes of
// one Manager.
type fastTable struct {
	cells []cell
	mask  uint64
}

// newFastTable creates a table of n cells, n a power of two.
func newFastTable(n int) *fastTable {
	return &fastTable{cells: make([]cell, n), mask: uint64(n - 1)}
}

func (ft *fastTable) cellFor(h uint64) *cell { return &ft.cells[h&ft.mask] }

// claim takes the free cell c for tx's fresh hold on datum-key hash h
// and threads it onto the transaction's release chain. It reports false,
// leaving nothing behind, when the cell is owned — by anyone, for any
// datum — or a stripe hold maps to it.
func (ft *fastTable) claim(tx *engine.Tx, c *cell, h, modeMask uint64) bool {
	// The pre-probe keeps a hopeless claim from flashing its mode at
	// compatible stripe acquirers.
	if c.stripe.Load() != 0 || !c.owner.CompareAndSwap(0, tx.ID()) {
		return false
	}
	c.hash.Store(h)
	c.modes.Store(modeMask)
	if c.stripe.Load() != 0 {
		c.modes.Store(0)
		c.owner.Store(0)
		return false
	}
	p, isNew := tx.Attach(ft)
	if isNew {
		tx.OnReleaser(ft)
	}
	c.txNext = uint32(*p)
	*p = h&ft.mask + 1
	return true
}

// ReleaseTx frees every fast hold of tx (engine.Releaser). A link is read
// before its cell is freed: the next owner may overwrite it at once.
func (ft *fastTable) ReleaseTx(tx *engine.Tx) {
	p, _ := tx.Attach(ft)
	w := *p
	*p = 0
	t0 := telemetry.LatClock()
	for w != 0 {
		c := &ft.cells[w-1]
		w = uint64(c.txNext)
		c.modes.Store(0)
		c.owner.Store(0)
	}
	telemetry.StageObserve(tx.Worker(), telemetry.StageCommit, t0)
}

// conflictScan is the stripe path's view into the fast table: after
// recording its own hold in the cell's stripe count, a stripe acquirer
// inspects the one cell its datum-key hash maps to for a fast hold of
// another transaction on the same datum in an incompatible mode. The
// mask is read before the hash (see cell), and the owner re-read rejects
// a cell released under the reads: not a holder.
func (m *Manager) conflictScan(tx *engine.Tx, h uint64, mode int) error {
	c := m.fast.cellFor(h)
	holder := c.owner.Load()
	if holder == 0 || holder == tx.ID() {
		return nil
	}
	conflicting := c.modes.Load() & m.incompat[mode]
	if conflicting == 0 || c.hash.Load() != h || c.owner.Load() != holder {
		return nil
	}
	return m.refuse(tx, holder, conflicting, mode)
}

// FastHolds reports how many fast-path holds are currently live (tests
// and diagnostics).
func (m *Manager) FastHolds() int {
	n := 0
	for i := range m.fast.cells {
		if m.fast.cells[i].owner.Load() != 0 {
			n++
		}
	}
	return n
}
