package abslock

import (
	"sync/atomic"

	"commlat/internal/engine"
)

// This file applies the lattice cascade's stage-1 conflict-signature
// prefilter to abstract locking: a datum acquisition whose cell of a
// direct-mapped table is unoccupied takes its lock there, without
// touching the lock table's mutex. A cell is indexed by the datum-key
// hash and holds at most one fast hold — one word packing the owner and
// its mode mask, beside the datum's hash — and a count of the stripe
// holds that map to it. Each side publishes before it probes: a fast
// acquirer writes its hold and then reads the stripe count, a stripe
// acquirer increments the count (see acquireInStripe) and then reads the
// hold, so of two racing conflicting acquirers at least one observes the
// other. The ds-lock is the datum of hash dsHash, no different from any
// other here.
//
// Fast admission demands a free cell and a zero stripe count, so
// compatible sharing of one datum (two readers of the same key) always
// runs the stripe path, and so does a datum whose cell another datum
// occupies — the fast path carries the disjoint-access case, without
// changing a single verdict: decisions remain those of the
// mode-incompatibility relation. The owner of a cell re-acquires its
// datum against the cell itself (Manager.acquireDatum): covered modes
// with no shared write at all, wider ones by widening the cell's mask in
// place. Modes from cellModes up, which the word has no room for, always
// take the stripe route.

// defaultFastSlots sizes the fast-hold table (a power of two). At 32
// bytes a cell the table is 128 KiB per manager, and a manager is built
// and zeroed per guarded structure, so the size is set-up time.
const defaultFastSlots = 1 << 12

// A cell's state word holds cellModes modes in its low byte (selected by
// cellModeMask) below the owner's transaction id. Every reduced scheme in
// this repository has at most eight modes.
const cellModes, cellModeMask = 8, 1<<8 - 1

// cellOwner is the owner half of a state word: a transaction id, 0 when
// the cell is free.
func cellOwner(st uint64) uint64 { return st >> cellModes }

// cell is one entry of the fast-hold table.
//
// state is the owner's transaction id over its mode mask, 0 while free:
// ids have 56 bits, 22 years at 10⁸ transactions a second. A claim is one
// CAS from 0, a release one store of 0, and the owner widens its mask in
// place. A claimer stores hash after its CAS, only when it differs, so a
// reader may pair a fresh claim with the last holder's stale hash — but
// only before that claim probes the stripe count the reader incremented
// first, so it retracts (DESIGN.md §8). Ids are never reused: an
// unchanged owner half means the same claim, not a recycled cell.
type cell struct {
	state  atomic.Uint64
	hash   atomic.Uint64
	stripe atomic.Int32 // stripe holds on datums that map here
	txNext uint32       // owner's chain of fast cells: cell+1, 0 terminates; owner-only
	_      uint64       // to 32 bytes, so that no cell straddles a cache line
}

// ownerStable reports whether c is still owned by the transaction whose
// state word a reader loaded as st. It compares the owner half only: an
// in-place widening leaves the owner holding every mode st showed.
func ownerStable(c *cell, st uint64) bool { return cellOwner(c.state.Load()) == cellOwner(st) }

// fastTable is one Manager's lock-free fast-hold store.
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
// in the mode of bit (below 1<<cellModes) and threads it onto the
// transaction's chain of fast cells. It reports false, leaving nothing
// behind, when the cell is owned — by anyone, for any datum — or a
// stripe hold maps to it.
func (m *Manager) claim(tx *engine.Tx, c *cell, h, bit uint64) bool {
	// The pre-probe keeps a hopeless claim from flashing its mode at
	// compatible stripe acquirers.
	if c.stripe.Load() != 0 || !c.state.CompareAndSwap(0, tx.ID()<<cellModes|bit) {
		return false
	}
	if c.hash.Load() != h {
		c.hash.Store(h)
	}
	if c.stripe.Load() != 0 {
		c.state.Store(0)
		return false
	}
	p := m.holds(tx)
	c.txNext = uint32(*p)
	*p = *p&stripeHeld | (h&m.fast.mask + 1)
	return true
}

// conflictScan is the stripe path's view into the fast table: after
// recording its own hold in the stripe count of c, the cell its
// datum-key hash h maps to, a stripe acquirer loads c's state word as st
// and looks for a fast hold of another transaction on the same datum in
// an incompatible mode. The owner and mask come in that one load, the
// hash after it, and the owner re-read rejects a cell released under the
// reads: its owner is not a holder, whichever datum's hash the cell now
// shows (TestConflictScanRechecksOwner).
func (m *Manager) conflictScan(tx *engine.Tx, c *cell, st, h uint64, mode int) error {
	holder := cellOwner(st)
	if holder == 0 || holder == tx.ID() {
		return nil
	}
	conflicting := st & cellModeMask & m.incompat[mode]
	if conflicting == 0 || c.hash.Load() != h || !ownerStable(c, st) {
		return nil
	}
	return m.refuse(tx, holder, conflicting, mode)
}

// FastHolds reports how many fast-path holds are currently live (tests
// and diagnostics).
func (m *Manager) FastHolds() int {
	n := 0
	for i := range m.fast.cells {
		if m.fast.cells[i].state.Load() != 0 {
			n++
		}
	}
	return n
}
