package abslock

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"commlat/internal/engine"
	"commlat/internal/sigfilter"
	"commlat/internal/telemetry"
)

// This file applies the lattice cascade's stage-1 conflict-signature
// prefilter to abstract locking: a datum acquisition that lands in an
// unoccupied filter cell takes its lock without touching a stripe
// mutex. Each fast hold lives in one slot of a lock-free table (version
// word, holder id, datum-key hash, mode mask) published before the
// filter probe, so of two racing conflicting acquirers at least one
// observes the other and falls through to the stripe path; the stripe
// path in turn publishes its own holds into the same filter (see
// acquireInStripe) and scans the fast chains for incompatible holders,
// which closes the loop in the other direction. The ds-lock is never
// fast-pathed.
//
// Fast admission demands a filter count of exactly its own publication,
// so compatible sharing of one datum (two readers of the same key)
// always runs the stripe path — the fast path accelerates the
// disjoint-access case the striping was built for, without changing a
// single verdict: decisions remain those of the mode-incompatibility
// relation. The holder of a fast slot re-acquires its datum against the
// slot itself (Manager.acquireDatum): covered modes with no shared
// write at all, wider ones by widening the slot's mask in place.

// Version-word protocol for fast slots: bit 0 marks the slot live, the
// counter above it detects recycling. There is no pin bit — a live
// slot's holder id and hash are immutable until release, so optimistic
// readers only compare two version loads around their field reads.
const (
	fastLive    uint64 = 1
	fastVerStep uint64 = 2
)

// defaultFastSlots sizes the fast-hold table; past this many
// simultaneous fast holds, acquisitions overflow to the stripes.
const defaultFastSlots = 1 << 12

// fastTable is the lock-free fast-hold store shared by all stripes of
// one Manager.
type fastTable struct {
	filter *sigfilter.Filter
	capS   uint32

	//commvet:seqlock protects=txids,hash
	ver   []atomic.Uint64
	txids []atomic.Uint64
	hash  []atomic.Uint64
	// modes is outside the seqlock: the holder widens it in place while
	// the slot is live (an upgrade, reverted if refused) without a version
	// bump. It is one atomic word, every value a reader can load is a
	// mask the holder did publish, and the upgrade is ordered against
	// readers by publish-then-probe on the filter, not by the version.
	modes []atomic.Uint64
	next  []atomic.Uint32 // bucket chain links; slot+1, 0 terminates
	txNxt []uint64        // per-tx chain; owner-goroutine access only

	free       *sigfilter.Stack
	heads      []atomic.Uint32
	bucketMask uint64

	nLive atomic.Int64

	// relMu serializes unlinking (chain pushes stay lock-free).
	relMu sync.Mutex
}

func newFastTable(capS int, filterBits int) *fastTable {
	if capS <= 0 {
		capS = defaultFastSlots
	}
	if filterBits <= 0 {
		// Four cells per slot: a full table still leaves three cells in
		// four empty, and the filter stays a fraction of the slot columns'
		// footprint. (sigfilter.New clamps small tables up to 64 cells.)
		filterBits = bits.Len(uint(capS-1)) + 2
	}
	ft := &fastTable{
		filter: sigfilter.New(filterBits),
		capS:   uint32(capS),
		ver:    make([]atomic.Uint64, capS),
		txids:  make([]atomic.Uint64, capS),
		hash:   make([]atomic.Uint64, capS),
		modes:  make([]atomic.Uint64, capS),
		next:   make([]atomic.Uint32, capS),
		txNxt:  make([]uint64, capS),
		free:   sigfilter.NewStack(capS),
	}
	nb := 64
	for nb < 2*capS {
		nb <<= 1
	}
	ft.heads = make([]atomic.Uint32, nb)
	ft.bucketMask = uint64(nb - 1)
	return ft
}

// ownHold looks up the transaction's own live fast hold on datum-key
// hash h, returning slot+1 and its mode mask (0 when it has none). The
// walk reads h's bucket chain and writes nothing. Pushes and unlinks by
// other transactions run under it, so every visited slot must be live
// and in this bucket, before and after its link is read; anything else
// restarts from the head. The transaction's own slot never moves while
// it runs, so a completed walk cannot have missed it.
func (ft *fastTable) ownHold(h, txid uint64) (uint32, uint64) {
	b := h & ft.bucketMask
restart:
	link := ft.heads[b].Load()
	for link != 0 {
		s := link - 1
		v := ft.ver[s].Load()
		hs := ft.hash[s].Load()
		if !ft.inChain(v, hs, b) {
			goto restart
		}
		if hs == h && ft.txids[s].Load() == txid {
			return link, ft.modes[s].Load()
		}
		next := ft.next[s].Load()
		if ft.ver[s].Load() != v {
			goto restart
		}
		link = next
	}
	return 0, 0
}

// inChain reports whether a slot whose version and hash were just
// loaded is live in bucket b. A dead slot, or one recycled into another
// bucket, was reached through a link that no longer belongs to b's
// chain; a dead one is still being unlinked under relMu, so the walker
// yields to the releaser before restarting.
func (ft *fastTable) inChain(v, hs, b uint64) bool {
	if v&fastLive == 0 {
		runtime.Gosched()
		return false
	}
	return hs&ft.bucketMask == b
}

// retract frees one published slot whose probe failed.
func (ft *fastTable) retract(s uint32) {
	ft.relMu.Lock()
	ft.releaseSlotLocked(s)
	ft.relMu.Unlock()
}

// publish fills a claimed slot and makes it discoverable: fields, then
// the live version, then the bucket chain, then the filter increment —
// anyone who sees the filter cell can find the slot through the chain.
func (ft *fastTable) publish(s uint32, txid, h, modeMask uint64) {
	v := ft.ver[s].Load() // free; we are the only claimant
	ft.txids[s].Store(txid)
	ft.hash[s].Store(h)
	ft.modes[s].Store(modeMask)
	ft.ver[s].Store(v + fastVerStep + fastLive)
	head := &ft.heads[h&ft.bucketMask]
	for {
		old := head.Load()
		ft.next[s].Store(old)
		if head.CompareAndSwap(old, s+1) {
			break
		}
	}
	ft.filter.Add(h)
	ft.nLive.Add(1)
}

// attach threads a fast hold onto the transaction's release chain,
// registering the table as a release hook on first contact.
func (ft *fastTable) attach(tx *engine.Tx, s uint32) {
	p, isNew := tx.Attach(ft)
	if isNew {
		tx.OnReleaser(ft)
	}
	ft.txNxt[s] = *p
	*p = uint64(s) + 1
}

// ReleaseTx frees every fast hold of tx (engine.Releaser).
func (ft *fastTable) ReleaseTx(tx *engine.Tx) {
	p, _ := tx.Attach(ft)
	w := *p
	if w == 0 {
		return
	}
	*p = 0
	t0 := telemetry.LatClock()
	ft.relMu.Lock()
	for w != 0 {
		s := uint32(w - 1)
		w = ft.txNxt[s]
		ft.releaseSlotLocked(s)
	}
	ft.relMu.Unlock()
	telemetry.StageObserve(tx.Worker(), telemetry.StageCommit, t0)
}

// releaseSlotLocked frees one live slot: version goes dead (so
// optimistic scans restart rather than follow a recycled link), the
// chain is unlinked, the filter cell decremented, the slot recycled.
// Caller holds relMu.
func (ft *fastTable) releaseSlotLocked(s uint32) {
	h := ft.hash[s].Load()
	v := ft.ver[s].Load()
	ft.ver[s].Store((v &^ fastLive) + fastVerStep)
	head := &ft.heads[h&ft.bucketMask]
	for {
		prev := head
		cur := prev.Load()
		for cur != 0 && cur != s+1 {
			prev = &ft.next[cur-1]
			cur = prev.Load()
		}
		if cur == 0 {
			break
		}
		if prev.CompareAndSwap(cur, ft.next[s].Load()) {
			break
		}
	}
	ft.filter.Remove(h)
	ft.txNxt[s] = 0
	ft.free.Push(s)
	ft.nLive.Add(-1)
}

// conflictScan is the stripe path's view into the fast table: after
// recording (and filter-publishing) its own hold, a stripe acquirer
// scans the bucket chain of its datum-key hash for a live fast hold of
// another transaction in an incompatible mode. Optimistic traversal
// under the rules of ownHold: a slot found dead or out of the bucket,
// or whose version moves while its link is read, restarts the walk.
func (m *Manager) conflictScan(tx *engine.Tx, dk *datumKey, mode int) error {
	ft := m.fast
	mask := m.incompat[mode]
	myID := tx.ID()
	b := dk.h & ft.bucketMask
restart:
	link := ft.heads[b].Load()
	for link != 0 {
		s := link - 1
		v := ft.ver[s].Load()
		hs := ft.hash[s].Load()
		if !ft.inChain(v, hs, b) {
			goto restart
		}
		if hs == dk.h && ft.txids[s].Load() != myID {
			if conflicting := ft.modes[s].Load() & mask; conflicting != 0 {
				holder := ft.txids[s].Load()
				if ft.ver[s].Load() != v {
					goto restart // released mid-screen: not a holder
				}
				held := uint16(bits.TrailingZeros64(conflicting))
				m.tele.ModeWait(uint16(mode))
				m.tele.Conflict(held, uint16(mode))
				telemetry.EmitConflict(tx.Worker(), tx.ID(), tx.Item(), m.tele.ID(), held, uint16(mode))
				return engine.Conflict("abstract lock held in a conflicting mode by tx %d (%s acquiring %s)",
					holder, m.scheme.ADT, m.scheme.Modes[mode])
			}
		}
		next := ft.next[s].Load()
		if ft.ver[s].Load() != v {
			goto restart
		}
		link = next
	}
	return nil
}

// FastHolds reports how many fast-path holds are currently live (tests
// and diagnostics).
func (m *Manager) FastHolds() int { return int(m.fast.nLive.Load()) }
