package gatekeeper

// This file adds the batched admission path to the lattice cascade:
// instead of walking every invocation through the pipeline one at a
// time — each paying its own filter probe, read-section entry, slot
// pop and release fence — a batch of invocations shares all of that
// read-side work and commits as a group.
//
// Semantics. A batch of ops is admitted as the longest prefix whose
// verdicts provably equal running the same ops one at a time, each
// transaction committing before the next begins. The pipeline:
//
//	publish   all effects execute in batch order (one representation
//	          lock for the run), every member's conflict keys publish
//	          into slots, chains and filter cells — all publications
//	          complete before any member probes, one publish/probe
//	          phase boundary instead of a fence per op.
//	probe     the batch packs its combined conflict signature (the
//	          16-bit filter-cell tags of every published key, four per
//	          64-bit word) and screens each member's probe cells
//	          against it with SWAR compares; a filter count equal to
//	          the batch's own contribution proves no external
//	          publication shares the cell.
//	pairs     members whose cells collide only with *earlier* batch
//	          members run the precise pair condition directly on the
//	          in-hand invocations (no chain walk, no pinning): an
//	          O(batch²/64) bitset pass over the peer sets. A
//	          non-commuting earlier member is a batch *boundary*, not a
//	          conflict — serially the earlier op's transaction would
//	          have committed first and both sides would admit.
//	slow      members whose cells count external publications (or that
//	          race an overflow record, or whose scan-plan chains are
//	          non-empty) fall back to the ordinary precise slow check,
//	          sharing one pooled checker context for the whole batch.
//	          Any refusal there also bounds the admitted prefix: the
//	          serial re-run reproduces the exact verdict.
//
// Everything at or past the boundary has its effect undone
// (newest-first) and its publication retracted — one release-mutex
// acquisition, one free-stack splice — and is left for the caller to
// re-run through the serial path after group-committing the prefix.
// Under-admission is always sound: it only trades batching for the
// serial path's verdicts.
//
// Soundness against concurrent external invocations is the cascade's
// usual publish-then-probe argument, batch-wide: every member publishes
// before any member probes, so of two racing conflicting parties at
// least one observes the other. A suffix member that published and was
// then retracted may transiently abort an external racer — the same
// optimistic window a serial publish-then-reject has.

import (
	"runtime"
	"sync"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/sigfilter"
	"commlat/internal/telemetry"
)

// BatchOp is one invocation of an admission batch. Tx, Method and Args
// are inputs; Ret and Undo are outputs of the batch's execution phase
// (filled by the exec callback passed to InvokeBatch). After
// InvokeBatch returns p, ops[:p] are admitted with Ret holding their
// results; ops[p:] have been undone and must be re-run through the
// serial path once the prefix's transactions have committed.
type BatchOp struct {
	Tx     *engine.Tx
	Method string
	Args   core.Vec

	Ret  core.Value
	Undo func()
}

// batchScratch is the pooled working state of one batch admission (and,
// reusing its slot buffer, of one batch release).
type batchScratch struct {
	mids  []uint16
	slots []uint32
	flags []bool
	nk    []uint8
	keys  []uint64 // op-major key hashes, stride = cascade maxKeys

	// The combined conflict signature: one entry per published key, in
	// publication order — its exact filter cell, its owning batch
	// position, and the cells' low 16 bits packed four per word.
	dkCell  []uint32
	dkOwner []uint16
	tags    []uint64

	// Exact cell-dedup table (open addressing, epoch-stamped so it is
	// never cleared between batches): maps a filter cell to the one
	// batch key occupying it, or dupKi when several do. When no cell is
	// shared — the common case for well-spread keys — every probe
	// resolves its own-batch contribution with one table lookup and the
	// O(batch²/64) SWAR pass is provably vacuous, so it is skipped.
	cellTab   []uint64 // epoch<<32 | cell
	cellKi    []uint16 // key index into dkCell/dkOwner, or dupKi
	cellEpoch uint32

	peers []uint64 // per-probe peer bitset, one bit per batch position
	freed []uint32 // batch-release slot buffer
}

const (
	cellTabSize = 256 // power of two; small enough to stay cache-resident
	cellTabLoad = 128 // max keys before the table is skipped entirely
	dupKi       = 0xFFFF
)

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// InvokeBatch runs a batch of guarded invocations: exec executes the
// effects of the structurally batchable prefix it is handed (filling
// each op's Ret and Undo, in order, typically under one acquisition of
// the structure's representation lock), and the cascade admits the
// longest prefix whose verdicts match the serial path. It returns that
// prefix length p: ops[:p] are admitted and attached to their (still
// active) transactions; ops[p:] have had any effects undone and
// publications retracted, untouched otherwise.
//
// To preserve verdict-for-verdict agreement with one-at-a-time
// execution, the caller must commit the prefix's transactions (see
// engine.CommitBatch) before re-running ops[p:] serially.
func (c *Cascade) InvokeBatch(ops []BatchOp, exec func(run []BatchOp)) int {
	if len(ops) == 0 {
		return 0
	}
	bs := batchScratchPool.Get().(*batchScratch)
	p := c.batchAdmit(ops, exec, bs)
	batchScratchPool.Put(bs)
	switch {
	case p == len(ops):
		c.tele.BatchWhole()
	case p == 0:
		c.tele.BatchSerialized()
	default:
		c.tele.BatchSplit()
	}
	c.tele.IncInvocationN(p) // serial re-runs count themselves
	return p
}

func (c *Cascade) batchAdmit(ops []BatchOp, exec func(run []BatchOp), bs *batchScratch) int {
	// Structural prefix: methods the context-free fast path can key at
	// all. The first op needing the compiled route (or unknown — the
	// serial path owns that error) bounds the batch.
	n0 := 0
	bs.mids = growSlice(bs.mids, len(ops))
	var lastMethod string
	var lastMid uint16
	haveLast := false
	allSelf := true
	for ; n0 < len(ops); n0++ {
		op := &ops[n0]
		var mid uint16
		if haveLast && op.Method == lastMethod {
			mid = lastMid // batches are usually method-runs: skip the map
		} else {
			var ok bool
			mid, ok = c.mids[op.Method]
			if !ok {
				break
			}
			lastMethod, lastMid, haveLast = op.Method, mid, true
		}
		mt := &c.mtab[mid]
		if !mt.allSimple || op.Args.Len() < mt.minArgs {
			break
		}
		if !mt.selfProbe {
			allSelf = false
		}
		bs.mids[n0] = mid
	}
	if n0 == 0 {
		return 0
	}

	// Execution phase: all effects of the batchable prefix, in order.
	exec(ops[:n0])

	// Key phase: evaluate and hash every member's conflict keys, and
	// build the combined signature's exact-cell side. An unkeyable key
	// bounds the batch (its op and everything after re-run serially).
	K := c.maxKeys
	bs.keys = growSlice(bs.keys, n0*K)
	bs.nk = growSlice(bs.nk, n0)
	bs.dkCell = bs.dkCell[:0]
	bs.dkOwner = bs.dkOwner[:0]
	n := n0
keyLoop:
	for i := 0; i < n0; i++ {
		op := &ops[i]
		pubs := c.pubs[bs.mids[i]]
		start := len(bs.dkCell)
		nk := 0
		for k := range pubs {
			ev := pubs[k].simple.eval(&op.Args, &op.Ret)
			h, kok := ev.KeyHash()
			if !kok {
				bs.dkCell = bs.dkCell[:start]
				bs.dkOwner = bs.dkOwner[:start]
				n = i
				break keyLoop
			}
			bs.keys[i*K+nk] = h
			bs.dkCell = append(bs.dkCell, c.filter.Cell(h))
			bs.dkOwner = append(bs.dkOwner, uint16(i))
			nk++
		}
		bs.nk[i] = uint8(nk)
	}

	// Slot phase: the batch cache (slots parked by the last group
	// release) plus at most one free-stack operation claims the whole
	// batch's slots; a shortfall bounds the batch at what the table can
	// hold.
	if n > 0 {
		bs.slots = growSlice(bs.slots, n)
		m := 0
		c.bfMu.Lock()
		if k := len(c.bfSlots); k > 0 {
			t := k
			if t > n {
				t = n
			}
			copy(bs.slots[:t], c.bfSlots[k-t:])
			c.bfSlots = c.bfSlots[:k-t]
			m = t
		}
		c.bfMu.Unlock()
		if m < n {
			m += c.free.PopN(bs.slots[m:n])
		}
		if m < n {
			total := 0
			for i := 0; i < m; i++ {
				total += int(bs.nk[i])
			}
			bs.dkCell = bs.dkCell[:total]
			bs.dkOwner = bs.dkOwner[:total]
			n = m
		}
	}
	if n == 0 {
		for i := n0 - 1; i >= 0; i-- {
			if u := ops[i].Undo; u != nil {
				ops[i].Undo = nil
				u()
			}
		}
		return 0
	}

	// Publish phase: every member's slot, chains and filter cells go
	// live before any member probes (publishSlot's batch mirror, with
	// the per-call return-value copies hoisted out of the loop). The
	// batch binds its slots to one group version cell — activated live
	// before the first slot becomes findable — so the group commit can
	// retire them all with one version advance; when the ring is
	// exhausted the slots publish in ordinary direct mode.
	tpub := telemetry.LatClock()
	gidx, gref, grouped := c.acquireGroup()
	for i := 0; i < n; i++ {
		op := &ops[i]
		slot := bs.slots[i]
		mid := bs.mids[i]
		keys := bs.keys[i*K : i*K+int(bs.nk[i])]
		v := c.ver[slot].Load() // free (bits 00); we are the only claimant
		c.txs[slot] = op.Tx
		c.argvs[slot] = op.Args
		c.rets[slot] = op.Ret
		c.undos[slot] = op.Undo
		c.txids[slot].Store(op.Tx.ID())
		base := int(slot) * K
		if grouped {
			if v&gmBit == 0 {
				c.slotCtr[slot] = v // save the direct counter across the episode
			}
			// Meta rides in the binding word; no meta-column store.
			c.ver[slot].Store(gref | uint64(mid)<<32 | uint64(len(keys))<<40)
		} else {
			if v&gmBit != 0 {
				v = c.slotCtr[slot]
			}
			c.metas[slot].Store(uint32(mid) | uint32(len(keys))<<16)
			c.ver[slot].Store(v + casVerStep + casLive)
		}
		for j, h := range keys {
			// Each chain entry is reachable only through its own push, so
			// the per-key publication steps fuse into one pass: hash store,
			// then the push that makes it findable, then the filter cell.
			c.hashes[base+j].Store(h)
			c.pushChain(&c.heads[h&c.bucketMask], &c.nextKey[base+j], uint32(base+j)+1)
			c.filter.Add(h)
		}
		if c.mtab[mid].needsMChain {
			c.pushChain(&c.mheads[mid], &c.nextM[slot], slot+1)
		}
	}
	if grouped {
		// Member count, before any of these transactions can end: the
		// suffix retraction below and all later releases decrement it
		// under relMu, and the whole-group release requires an exact
		// match before retiring the cell.
		c.gSize[gidx] = uint32(n)
	}
	na := c.nActive.Add(int64(n))
	c.observeActive(na)
	// The count coming back from our own increment proves exclusivity:
	// releases decrement only after their slots die, so na == n means
	// every live invocation is this batch's own. A publisher racing in
	// the other direction (published, not yet counted) is safe by the
	// usual asymmetry — its probe follows its publication, which the
	// total order places after our increment, so it sees our slots.
	alone := na == int64(n)
	tprobe := tpub
	if tpub != 0 {
		tprobe = telemetry.LatClock() // publish phase ends, probe phase begins
	}

	// Build the combined conflict signature. The exact side goes into
	// the cell-dedup table; only when some cell is shared by two batch
	// keys (or the batch is too large for the table) are the 16-bit
	// tags also packed four per word for the SWAR pass.
	total := len(bs.dkCell)
	useTab := total <= cellTabLoad
	dupAny := false
	if useTab {
		bs.cellEpoch++
		if bs.cellEpoch == 0 || len(bs.cellTab) != cellTabSize {
			bs.cellTab = growSlice(bs.cellTab, cellTabSize)
			bs.cellKi = growSlice(bs.cellKi, cellTabSize)
			for x := range bs.cellTab {
				bs.cellTab[x] = 0
			}
			bs.cellEpoch = 1
		}
		epoch := bs.cellEpoch
		for ki, cell := range bs.dkCell {
			ti := cell & (cellTabSize - 1)
			for {
				e := bs.cellTab[ti]
				if uint32(e>>32) != epoch {
					bs.cellTab[ti] = uint64(epoch)<<32 | uint64(cell)
					bs.cellKi[ti] = uint16(ki)
					break
				}
				if uint32(e) == cell {
					bs.cellKi[ti] = dupKi
					dupAny = true
					break
				}
				ti = (ti + 1) & (cellTabSize - 1)
			}
		}
	}
	if !useTab || dupAny {
		bs.tags = growSlice(bs.tags, (total+3)/4)
		for w := range bs.tags {
			bs.tags[w] = 0
		}
		for ki, cell := range bs.dkCell {
			bs.tags[ki>>2] = sigfilter.PackTag16(bs.tags[ki>>2], ki&3, uint16(cell))
		}
	}

	// Probe phase.
	forceSlow := c.ovCount.Load() != 0
	if alone && !forceSlow && allSelf && useTab && !dupAny {
		// Tautology batch: every member's probes read only its own keys
		// (selfProbe), those keys share no filter cell (!dupAny), and no
		// other invocation is live (alone). Run one at a time, each
		// member's stage-1 screen would count exactly its own cell and
		// admit — so the whole probe phase is skipped, verdict intact.
		for i := n0 - 1; i >= n; i-- {
			if u := ops[i].Undo; u != nil {
				ops[i].Undo = nil
				u()
			}
		}
		for i := 0; i < n; i++ {
			// attach's table-slot branch, inlined (no overflow words here).
			tx := ops[i].Tx
			var p *uint64
			if tx.OnEnd(c) {
				p = tx.EndWord()
			} else {
				var isNew bool
				p, isNew = tx.Attach(c)
				if isNew {
					tx.OnUndoer(c)
					tx.OnReleaser(c)
				}
			}
			s := bs.slots[i]
			c.txNext[s] = *p
			*p = uint64(s) + 1
		}
		c.tele.CascadeFastAdmitN(n)
		if obsInstrumented(tpub) {
			c.observeBatch(ops[0].Tx, bs.mids[0], len(ops), n, tpub, tprobe)
		}
		return n
	}
	bs.flags = growSlice(bs.flags, n)
	pw := (n + 63) / 64
	bs.peers = growSlice(bs.peers, pw)
	anyFlagged := false
	var psc *cascadeScratch // shared checker context, pooled lazily
	limit := n
	for i := 0; i < limit; i++ {
		op := &ops[i]
		mt := &c.mtab[bs.mids[i]]
		flag := forceSlow
		if !flag {
			for _, m1 := range mt.scanM1s {
				if c.mheads[m1].Load() != nilLink {
					flag = true
					break
				}
			}
		}
		havePeers := false
		if !flag {
			for pi := 0; pi < len(mt.fastProbes) && !flag; pi++ {
				var h uint64
				if pk := mt.probeKey[pi]; pk >= 0 && int(pk) < int(bs.nk[i]) {
					h = bs.keys[i*K+int(pk)] // probe term == published key: reuse its hash
				} else {
					ev := mt.fastProbes[pi].simple.eval(&op.Args, &op.Ret)
					var kok bool
					h, kok = ev.KeyHash()
					if !kok {
						flag = true
						break
					}
				}
				cell := c.filter.Cell(h)
				var selfAll int32
				if useTab {
					// One exact lookup resolves the batch's contribution
					// to this cell — and names the single colliding peer,
					// if any. Cells several batch keys share fall back to
					// the SWAR pass.
					ti := cell & (cellTabSize - 1)
					for {
						e := bs.cellTab[ti]
						if uint32(e>>32) != bs.cellEpoch {
							break // miss: the batch published nothing here
						}
						if uint32(e) == cell {
							if ki := bs.cellKi[ti]; ki != dupKi {
								selfAll = 1
								if j := int(bs.dkOwner[ki]); j != i {
									if !havePeers {
										havePeers = true
										for x := range bs.peers[:pw] {
											bs.peers[x] = 0
										}
									}
									bs.peers[j>>6] |= 1 << uint(j&63)
								}
							} else {
								selfAll = c.scanSelfCell(bs, i, cell, total, pw, &havePeers)
							}
							break
						}
						ti = (ti + 1) & (cellTabSize - 1)
					}
				} else {
					selfAll = c.scanSelfCell(bs, i, cell, total, pw, &havePeers)
				}
				// When the batch is alone the filter holds nothing but its
				// own cells, so the count can never exceed the exact
				// self-attribution — skip the load.
				if !alone && c.filter.Count(h) > selfAll {
					flag = true
				}
			}
		}
		if !flag && havePeers && !c.checkBatchPeers(ops, bs, i, &psc) {
			// A non-commuting earlier member: split here, serialize the
			// rest. Not a conflict — serially both sides would admit.
			limit = i
			break
		}
		bs.flags[i] = flag
		if flag {
			anyFlagged = true
		}
	}

	// Slow phase: flagged members take the ordinary precise route, all
	// sharing one checker context. Any refusal — external conflict,
	// batch peer surfaced through the chains, checker error — bounds
	// the prefix; the serial re-run reproduces the verdict for the
	// bounding op itself.
	if anyFlagged {
		for i := 0; i < limit; i++ {
			if !bs.flags[i] {
				continue
			}
			if psc == nil {
				psc = cascadeScratchPool.Get().(*cascadeScratch)
			}
			inv := c.bindCtx(psc, bs.mids[i], ops[i].Args, ops[i].Ret)
			if err := c.slowCheck(ops[i].Tx, bs.mids[i], inv, psc); err != nil {
				limit = i
				break
			}
			c.tele.CascadeFilterHit()
		}
	}
	if psc != nil {
		psc.reset()
		cascadeScratchPool.Put(psc)
	}

	// Finalize: undo the suffix newest-first, retract its publications
	// as one group, then attach the admitted prefix.
	for i := n0 - 1; i >= limit; i-- {
		if u := ops[i].Undo; u != nil {
			ops[i].Undo = nil
			u()
		}
	}
	if limit < n {
		c.retractSlots(bs.slots[limit:n])
	}
	fast := 0
	for i := 0; i < limit; i++ {
		c.attach(ops[i].Tx, uint64(bs.slots[i])+1)
		if !bs.flags[i] {
			fast++
		}
	}
	c.tele.CascadeFastAdmitN(fast)
	if obsInstrumented(tpub) {
		c.observeBatch(ops[0].Tx, bs.mids[0], len(ops), limit, tpub, tprobe)
	}
	return limit
}

// observeBatch observes a batched admission of n members, of which
// grouped were admitted as a group, as one group flight record. tpub
// and tprobe are the LatClock marks at the start of the publish and
// probe phases (0 = latency off); the probe phase ends here.
func (c *Cascade) observeBatch(tx *engine.Tx, mid uint16, n, grouped int, tpub, tprobe int64) {
	rec := telemetry.FlightRecord{Det: c.tele.ID(), Method: mid, Verdict: telemetry.FlightBatchWhole, N: uint16(n)}
	switch {
	case grouped == 0:
		rec.Verdict = telemetry.FlightBatchSerial
	case grouped < n:
		rec.Verdict = telemetry.FlightBatchSplit
	}
	rec.Mark(telemetry.StageBatchPublish, tprobe-tpub)
	rec.Mark(telemetry.StageBatchProbe, since(tprobe))
	observe(tx, &rec, tpub, 1<<telemetry.StageBatchPublish|1<<telemetry.StageBatchProbe)
}

// scanSelfCell counts the batch's publications in cell with the SWAR
// word pass over the packed tag signature, recording every owner other
// than i in the peer bitset (cleared lazily on first touch). Each
// nominated word's four lanes are verified exactly: SWAR lane
// attribution is approximate, and padding lanes or wide filters may
// alias the tag.
func (c *Cascade) scanSelfCell(bs *batchScratch, i int, cell uint32, total, pw int, havePeers *bool) int32 {
	spread := sigfilter.SpreadTag16(uint16(cell))
	var selfAll int32
	for w := range bs.tags {
		if !sigfilter.MatchTag4(bs.tags[w], spread) {
			continue
		}
		for ki := w * 4; ki < w*4+4 && ki < total; ki++ {
			if bs.dkCell[ki] != cell {
				continue
			}
			selfAll++
			if j := int(bs.dkOwner[ki]); j != i {
				if !*havePeers {
					*havePeers = true
					for x := range bs.peers[:pw] {
						bs.peers[x] = 0
					}
				}
				bs.peers[j>>6] |= 1 << uint(j&63)
			}
		}
	}
	return selfAll
}

// checkBatchPeers runs the precise pair conditions of batch member i
// against the earlier members its probe cells collided with (the peer
// bitset filled by the probe phase). It reports false when some earlier
// member does not commute — a batch boundary. Later colliding members
// are ignored here: each of them re-checks the serially meaningful
// direction (i active, them incoming) on its own probe.
func (c *Cascade) checkBatchPeers(ops []BatchOp, bs *batchScratch, i int, pscp **cascadeScratch) bool {
	myID := ops[i].Tx.ID()
	plans := c.byM2[bs.mids[i]]
	var inv2 core.Invocation
	inv2Made := false
	for j := 0; j < i; j++ {
		if bs.peers[j>>6]&(1<<uint(j&63)) == 0 {
			continue
		}
		if ops[j].Tx.ID() == myID {
			continue // own transaction's invocations never conflict
		}
		for pi := range plans {
			plan := &plans[pi]
			// Scan plans cannot reach here: a published peer of a scan
			// plan's m1 makes its method chain non-empty, which flags op
			// i before the peer pass runs.
			if plan.m1 != bs.mids[j] || plan.scan {
				continue
			}
			if *pscp == nil {
				*pscp = cascadeScratchPool.Get().(*cascadeScratch)
			}
			if !inv2Made {
				inv2 = core.MakeInvocation(c.names[bs.mids[i]], ops[i].Args, ops[i].Ret)
				inv2Made = true
			}
			inv1 := core.MakeInvocation(c.names[bs.mids[j]], ops[j].Args, ops[j].Ret)
			if !c.pairCommutes(plan, inv1, inv2, *pscp) {
				return false
			}
		}
	}
	return true
}

// pairCommutes runs one plan's precise condition on an in-hand pair —
// stage 3 without chain discovery or pinning, since the batch already
// holds both invocations. A checker error reports as non-commuting; the
// serial re-run of the bounding op surfaces the error itself.
func (c *Cascade) pairCommutes(plan *cascadePlan, inv1, inv2 core.Invocation, sc *cascadeScratch) bool {
	c.tele.Check(plan.m1, plan.m2)
	if plan.never {
		return false
	}
	sc.inv1, sc.inv2 = inv1, inv2
	sc.ctx.inv1, sc.ctx.inv2 = &sc.inv1, &sc.inv2
	c.checkMu.Lock()
	ok, err := plan.check(&sc.ctx)
	c.checkMu.Unlock()
	return err == nil && ok
}

// batchSlotCacheCap bounds the batch slot cache (the per-cascade bound
// is half the table, whichever is smaller).
const batchSlotCacheCap = 256

// parkSlots returns a run of freed slots to the batch cache for the
// next admission to reclaim, spilling past the cap to the shared free
// stack (one stack splice) so serial pops never starve.
func (c *Cascade) parkSlots(slots []uint32) {
	if len(slots) == 0 {
		return
	}
	c.bfMu.Lock()
	t := cap(c.bfSlots) - len(c.bfSlots)
	if t > len(slots) {
		t = len(slots)
	}
	if t > 0 {
		c.bfSlots = append(c.bfSlots, slots[:t]...)
	}
	c.bfMu.Unlock()
	if t < len(slots) {
		c.free.PushN(slots[t:])
	}
}

// acquireGroup claims and activates one ring cell for a batch's slots.
// Only dead, unpinned cells are eligible; a cell stays bound until its
// last member releases, so a full ring (many admitted-but-uncommitted
// batches) reports !ok and the batch publishes in direct mode. The CAS
// is the only successful writer a dead cell can have — in-flight pins
// expect a live snapshot and fail — so losing it just means another
// batch claimed the cell first.
func (c *Cascade) acquireGroup() (gidx uint32, gref uint64, ok bool) {
	if len(c.names) > 256 {
		return 0, 0, false // method id would not fit the packed meta
	}
	for try := 0; try < numGroups; try++ {
		g := c.gClock.Add(1) & (numGroups - 1)
		gw := c.groups[g].Load()
		if gw&(casLive|casLocked) != 0 {
			continue
		}
		live := gw + casVerStep + casLive
		if c.groups[g].CompareAndSwap(gw, live) {
			return g, makeGroupRef(g, live), true
		}
	}
	return 0, 0, false
}

// releaseGroupLocked retires a whole group at once: one pin of the
// group cell, the per-slot chain and filter teardown, then the single
// version advance that is the batch's release fence — every member
// becomes invisible to optimistic readers with that one store. The
// slots' own words keep their stale binding until reused. Caller holds
// relMu and must own every live member of the cell (gSize match).
func (c *Cascade) releaseGroupLocked(gidx uint32, slots []uint32) {
	var gclean uint64
	for spins := 0; ; spins++ {
		gw := c.groups[gidx].Load()
		gclean = gw &^ casLocked
		if gw&casLocked == 0 && c.groups[gidx].CompareAndSwap(gclean, gclean|casLocked) {
			break
		}
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
	for _, s := range slots {
		c.teardownSlot(s, slotMeta(c.ver[s].Load()))
		c.slotCtr[s] += casVerStep
	}
	c.gSize[gidx] = 0
	c.groups[gidx].Store((gclean &^ casLive) + casVerStep)
}

// retractSlots withdraws a run of rejected publications: one relMu
// acquisition for all the unlinking, one slot-cache park, one active
// count update.
func (c *Cascade) retractSlots(slots []uint32) {
	if len(slots) == 0 {
		return
	}
	c.relMu.Lock()
	for _, s := range slots {
		c.releaseSlotCore(s)
	}
	c.relMu.Unlock()
	c.parkSlots(slots)
	c.nActive.Add(-int64(len(slots)))
}

// ReleaseTxBatch frees every record of a group of ending transactions
// under one relMu acquisition (engine.BatchReleaser): the group-commit
// mirror of ReleaseTx, parking all freed slots for the next batch (or
// splicing them back with one stack operation).
func (c *Cascade) ReleaseTxBatch(txs []*engine.Tx) {
	t0 := telemetry.LatClock()
	bs := batchScratchPool.Get().(*batchScratch)
	freed := bs.freed[:0]
	c.relMu.Lock()
	// Collect every slot first: when all of them share one group binding
	// and account for all its live members — the steady state, one whole
	// batch committing together — the group path retires them with a
	// single pin and one version advance instead of two per slot.
	oneGroup := true
	var gref uint64
	for _, tx := range txs {
		p := c.txWord(tx)
		w := *p
		*p = 0
		for w != 0 {
			if w&ovTag == 0 {
				s := uint32(w - 1)
				w = c.txNext[s]
				if v := c.ver[s].Load(); v&gmBit == 0 {
					oneGroup = false
				} else if gref == 0 {
					gref = v &^ grpMetaMask
				} else if v&^grpMetaMask != gref {
					oneGroup = false
				}
				freed = append(freed, s)
			} else {
				c.ovMu.Lock()
				i := (w &^ ovTag) - 1
				r := &c.ovs[i]
				next := r.txNext
				r.args.Release()
				*r = ovRecord{}
				c.ovFree = append(c.ovFree, uint32(i))
				c.ovCount.Add(-1)
				c.ovMu.Unlock()
				c.nActive.Add(-1)
				w = next
			}
		}
	}
	if oneGroup && gref != 0 && c.gSize[refGidx(gref)] == uint32(len(freed)) {
		c.releaseGroupLocked(refGidx(gref), freed)
	} else {
		for _, s := range freed {
			c.releaseSlotCore(s)
		}
	}
	c.relMu.Unlock()
	c.parkSlots(freed)
	c.nActive.Add(-int64(len(freed)))
	bs.freed = freed[:0]
	batchScratchPool.Put(bs)
	if t0 != 0 && len(txs) > 0 {
		// One commit/release observation for the group: the whole point
		// of the group commit is that release cost is paid per batch.
		telemetry.StageObserve(txs[0].Worker(), telemetry.StageCommit, t0)
	}
}
