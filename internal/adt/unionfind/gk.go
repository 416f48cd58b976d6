package unionfind

import (
	"sync"

	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// GK is the paper's concrete general gatekeeper for union-find (§3.3.2,
// "A general gatekeeper for union-find"). It keeps two logs:
//
//   - find-reps: the representatives returned by active finds;
//   - loser-rep: the loser representative of each active union;
//
// plus an exact-write journal of all mutations by live transactions
// (union edges and path compression). An incoming union conflicts when
// its base-state representatives include an active loser, or when its
// loser was returned by an active find. An incoming find executes, then
// — if other transactions have live mutations — the journal is unwound
// to the state with no other-transaction effects, the find is
// re-executed without compression, and the results compared; a mismatch
// means the find observed a live union and is a conflict. The journal is
// then replayed.
//
// Rolling back only live transactions' writes is sound because every
// committed mutation was checked to commute with all still-active
// invocations, so the rolled-back state is C-equivalent to each active
// invocation's true pre-state (the same stance the paper's prose takes:
// "undoes the effects of all potentially interfering calls to union").
//
// Representatives are element ids, so both logs are arrays indexed by
// representative, not maps: an invocation on one representative reads
// and writes that representative's cell and nothing another
// representative's invocation touches. Transactions are recorded by id,
// never by pointer, so no log, journal entry or recycled state keeps a
// pooled engine.Tx reachable.
type GK struct {
	mu   sync.Mutex
	f    *Forest
	tele *telemetry.Detector

	journal []txWrite
	ws      []Write // scratch for one invocation's writes, reused under mu

	findReps  []cell // by representative: transactions holding it via find
	loserReps []cell // by loser: transactions holding it via union
	spills    []spill
	freeSpill int32 // head of the recycled-spill chain (index+1), 0 = none

	// states is the slab of per-transaction log states. A transaction
	// reaches its own through its Tx.Attach(g) word (index+1), so no
	// invocation hashes anything; ended transactions' states are recycled
	// with their slices' capacity.
	states     []gkTxState
	freeStates []int32
}

// cell is the set of transactions holding one representative in one log.
// Only membership matters (a hold lasts until its transaction ends), so
// there is no count. At one worker a representative has one holder, kept
// inline; finds of one representative by different transactions commute
// and share the cell, the second and later holders on a spill chain.
// A cell with an empty inline slot has an empty chain.
type cell struct {
	holder uint64 // transaction id; 0 = nobody
	spill  int32  // further holders: index+1 into GK.spills, 0 = none
}

// spill is one further holder of a cell, or a link of the free chain.
type spill struct {
	holder uint64
	next   int32
}

type txWrite struct {
	tx uint64 // id of the transaction that wrote
	w  Write
}

// gkTxState is what one live transaction has in the logs and journal.
type gkTxState struct {
	finds  []int64 // find-reps cells it holds
	losers []int64 // loser-rep cells it holds
	writes int     // its entries in the journal
}

// Method label indices for telemetry attribution (positions in the
// detector's label vocabulary).
const (
	gkFind uint16 = iota
	gkUnion
)

// NewGK creates a uf-gk structure with n elements.
func NewGK(n int) *GK {
	return &GK{
		f:         NewForest(n),
		tele:      telemetry.Register("general", "unionfind", []string{"find", "union"}),
		findReps:  make([]cell, n),
		loserReps: make([]cell, n),
	}
}

// Forest exposes the underlying forest.
func (g *GK) Forest() *Forest { return g.f }

// Telemetry returns the gatekeeper's telemetry detector, which
// attributes checks and conflicts per method pair (find/union).
func (g *GK) Telemetry() *telemetry.Detector { return g.tele }

// conflict attributes a detected conflict to the (held, incoming)
// method pair and emits a trace event when tracing is on.
func (g *GK) conflict(tx *engine.Tx, held, incoming uint16) {
	g.tele.Conflict(held, incoming)
	if telemetry.TraceEnabled() {
		telemetry.EmitConflict(tx.Worker(), tx.ID(), tx.Item(), g.tele.ID(), held, incoming)
	}
}

// enter returns tx's log state, taking a recycled one and installing the
// lifecycle hooks on the transaction's first invocation, and makes the
// log tables cover every element Forest.Grow has added since. The GK
// registers itself as the transaction's Undoer and Releaser, so hook
// installation allocates nothing in steady state. The pointer is good
// until the next enter (the slab may move).
func (g *GK) enter(tx *engine.Tx) *gkTxState {
	if n := g.f.Len(); n > len(g.findReps) {
		g.findReps = append(g.findReps, make([]cell, n-len(g.findReps))...)
		g.loserReps = append(g.loserReps, make([]cell, n-len(g.loserReps))...)
	}
	word, isNew := tx.Attach(g)
	if isNew {
		if n := len(g.freeStates); n > 0 {
			*word = uint64(g.freeStates[n-1]) + 1
			g.freeStates = g.freeStates[:n-1]
		} else {
			g.states = append(g.states, gkTxState{})
			*word = uint64(len(g.states))
		}
		tx.OnUndoer(g)
		tx.OnReleaser(g)
	}
	return &g.states[*word-1]
}

// othersLive reports whether any transaction other than st's has
// journaled mutations.
func (g *GK) othersLive(st *gkTxState) bool {
	return len(g.journal) > st.writes
}

// rollbackOthers exactly undoes every journaled write by transactions
// other than tx, newest first. Safe because live writes to the same cell
// always belong to a single transaction (conflicting writes are detected
// before they are journaled).
func (g *GK) rollbackOthers(tx uint64) {
	for i := len(g.journal) - 1; i >= 0; i-- {
		if g.journal[i].tx != tx {
			g.f.parent[g.journal[i].w.Idx] = g.journal[i].w.Old
		}
	}
}

// redoOthers replays what rollbackOthers undid, oldest first.
func (g *GK) redoOthers(tx uint64) {
	for i := 0; i < len(g.journal); i++ {
		if g.journal[i].tx != tx {
			g.f.parent[g.journal[i].w.Idx] = g.journal[i].w.New
		}
	}
}

// heldByOther reports whether some transaction other than tx holds c,
// and which.
func (g *GK) heldByOther(c *cell, tx uint64) (uint64, bool) {
	if c.holder != 0 && c.holder != tx {
		return c.holder, true
	}
	for s := c.spill; s != 0; s = g.spills[s-1].next {
		if h := g.spills[s-1].holder; h != tx {
			return h, true
		}
	}
	return 0, false
}

// hold adds tx to c's holders, reporting whether it was not one already
// (the caller then notes the cell in tx's state, to drop at its end).
func (g *GK) hold(c *cell, tx uint64) bool {
	if c.holder == tx {
		return false
	}
	if c.holder == 0 {
		c.holder = tx
		return true
	}
	for s := c.spill; s != 0; s = g.spills[s-1].next {
		if g.spills[s-1].holder == tx {
			return false
		}
	}
	s := g.freeSpill
	if s != 0 {
		g.freeSpill = g.spills[s-1].next
	} else {
		g.spills = append(g.spills, spill{})
		s = int32(len(g.spills))
	}
	g.spills[s-1] = spill{holder: tx, next: c.spill}
	c.spill = s
	return true
}

// drop removes tx from c's holders. When the inline holder leaves, the
// head of the spill chain moves inline, so an empty inline slot keeps
// meaning an empty cell.
func (g *GK) drop(c *cell, tx uint64) {
	link := &c.spill
	if c.holder == tx {
		c.holder = 0
		if *link != 0 {
			c.holder = g.spills[*link-1].holder
		}
	} else {
		for *link != 0 && g.spills[*link-1].holder != tx {
			link = &g.spills[*link-1].next
		}
	}
	if s := *link; s != 0 {
		*link = g.spills[s-1].next
		g.spills[s-1] = spill{next: g.freeSpill}
		g.freeSpill = s
	}
}

// Union merges a's and b's sets under gatekeeping, reporting whether the
// partition changed. A union of an already-joined pair mutates nothing
// and commutes with everything, so it passes without logging.
func (g *GK) Union(tx *engine.Tx, a, b int64) (bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tele.IncInvocation()
	st, id := g.enter(tx), tx.ID()

	var ra0, rb0 int64
	if !g.othersLive(st) {
		// Fast path: no live foreign mutations, so the current state IS
		// the base state — use compressing finds (journaled for exact
		// abort) to keep amortized costs near-constant.
		ra0, g.ws = g.f.findW(a, g.ws[:0])
		g.journalWrites(st, id, g.ws)
		rb0, g.ws = g.f.findW(b, g.ws[:0])
		g.journalWrites(st, id, g.ws)
	} else {
		// The representatives in the rolled-back base state (≈ the s1 of
		// every active invocation, up to C-equivalence).
		g.rollbackOthers(id)
		ra0, rb0 = g.f.FindNoCompress(a), g.f.FindNoCompress(b)
		g.redoOthers(id)
	}
	g.tele.Check(gkUnion, gkUnion)
	if other, held := g.heldByOther(&g.loserReps[ra0], id); held {
		g.conflict(tx, gkUnion, gkUnion)
		return false, engine.ConflictBy(other, "uf-gk: rep %d of %d lost an active union", ra0, a)
	}
	if other, held := g.heldByOther(&g.loserReps[rb0], id); held {
		g.conflict(tx, gkUnion, gkUnion)
		return false, engine.ConflictBy(other, "uf-gk: rep %d of %d lost an active union", rb0, b)
	}
	if ra0 == rb0 {
		return false, nil
	}
	l := ra0
	if rb0 < ra0 {
		l = rb0
	}
	g.tele.Check(gkFind, gkUnion)
	if other, held := g.heldByOther(&g.findReps[l], id); held {
		g.conflict(tx, gkFind, gkUnion)
		return false, engine.ConflictBy(other, "uf-gk: loser %d was returned by an active find", l)
	}

	// Perform the union and journal its exact writes.
	var merged bool
	merged, g.ws = g.f.unionW(a, b, g.ws[:0])
	g.journalWrites(st, id, g.ws)
	if g.hold(&g.loserReps[l], id) {
		st.losers = append(st.losers, l)
	}
	return merged, nil
}

// Find returns a's representative under gatekeeping, compressing the
// path on success.
func (g *GK) Find(tx *engine.Tx, a int64) (int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tele.IncInvocation()
	st, id := g.enter(tx), tx.ID()

	var ra int64
	ra, g.ws = g.f.findW(a, g.ws[:0])
	if g.othersLive(st) {
		// Re-execute in the pre-state of the active invocations: undo our
		// fresh compression, unwind other transactions' writes, query,
		// replay.
		g.tele.Check(gkUnion, gkFind)
		g.tele.IncRollback()
		g.f.Revert(g.ws)
		g.rollbackOthers(id)
		ra0 := g.f.FindNoCompress(a)
		g.redoOthers(id)
		if ra0 != ra {
			g.conflict(tx, gkUnion, gkFind)
			// ra0 is a root in the base state and not now: a live union
			// of another transaction made it the loser.
			return ra, engine.ConflictBy(g.loserReps[ra0].holder,
				"uf-gk: find(%d) = %d observes an active union (was %d)", a, ra, ra0)
		}
		g.f.Apply(g.ws)
	}
	g.journalWrites(st, id, g.ws)
	if g.hold(&g.findReps[ra], id) {
		st.finds = append(st.finds, ra)
	}
	return ra, nil
}

func (g *GK) journalWrites(st *gkTxState, tx uint64, ws []Write) {
	if len(ws) == 0 {
		return
	}
	for _, w := range ws {
		g.journal = append(g.journal, txWrite{tx: tx, w: w})
	}
	st.writes += len(ws)
	g.tele.IncLogEntry()
	g.tele.ObserveJournal(len(g.journal))
}

// dropWrites takes st's transaction's entries out of the journal, first
// undoing them newest first if revert is set. A transaction that owns the
// whole journal — every transaction at one worker — truncates it;
// otherwise one pass closes the gaps, keeping the others' entries in
// order.
func (g *GK) dropWrites(st *gkTxState, tx uint64, revert bool) {
	if st.writes == 0 {
		return
	}
	if revert {
		for i := len(g.journal) - 1; i >= 0; i-- {
			if g.journal[i].tx == tx {
				g.f.parent[g.journal[i].w.Idx] = g.journal[i].w.Old
			}
		}
	}
	kept := g.journal[:0]
	if st.writes < len(g.journal) {
		for _, jw := range g.journal {
			if jw.tx != tx {
				kept = append(kept, jw)
			}
		}
	}
	g.journal = kept
	st.writes = 0
}

// UndoTx exactly undoes tx's journaled writes (newest first).
func (g *GK) UndoTx(tx *engine.Tx) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dropWrites(&g.states[*tx.AttachedWord(g)-1], tx.ID(), true)
}

// ReleaseTx drops tx's journal entries and log records, in time
// proportional to what tx itself logged, and recycles its state.
func (g *GK) ReleaseTx(tx *engine.Tx) {
	g.mu.Lock()
	defer g.mu.Unlock()
	slot := int32(*tx.AttachedWord(g) - 1)
	st, id := &g.states[slot], tx.ID()
	g.dropWrites(st, id, false)
	for _, r := range st.finds {
		g.drop(&g.findReps[r], id)
	}
	for _, l := range st.losers {
		g.drop(&g.loserReps[l], id)
	}
	st.finds, st.losers = st.finds[:0], st.losers[:0]
	g.freeStates = append(g.freeStates, slot)
}

// LiveWrites reports the journal length (tests and diagnostics).
func (g *GK) LiveWrites() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.journal)
}
