package gatekeeper

// This file implements the lattice-cascade detector: instead of picking
// one point on the commutativity lattice per run, every invocation
// walks a pipeline of successively stronger (and costlier) points and
// stops at the first one that proves commutativity.
//
//	stage 1  signature filter   lock-free counting table of key hashes;
//	                            a probe that finds only this invocation's
//	                            own publications admits with zero locks.
//	stage 2  optimistic index   seqlock-style lock-free scans over a flat
//	                            structure-of-arrays slot table, keyed by
//	                            the same disequality decomposition the
//	                            forward gatekeeper indexes on; traversals
//	                            retry on a version-stamp race.
//	stage 3  precise checker    the compiled pair condition, run only on
//	                            genuine candidates (and, exceptionally,
//	                            on a mutex-guarded overflow list).
//
// Soundness of the lock-free admission rests on a publish-then-probe
// protocol: an invocation first publishes its own conflict-key hashes
// (slot table, chains, then filter cells) and only then probes the
// filter. Go's sequentially consistent atomics then guarantee that of
// two racing invocations with colliding keys, at least one observes
// the other and falls through to the precise stages; the slower one
// finds the faster one's slot through the chains because chain pushes
// happen before filter increments.
//
// Agreement with the forward gatekeeper is exact: both execute the
// invocation first and decide afterwards (Forward undoes the effect on
// conflict), both declare a conflict if and only if some live
// invocation of another transaction falsifies the pair condition, and
// both surface checker errors as plain (non-conflict) errors. The
// cascade keeps no logs, so it requires every condition to be
// evaluable from the two invocations alone — pure state functions at
// most (see cascadable).

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/sigfilter"
	"commlat/internal/telemetry"
)

// Version-word protocol for slot state transitions. Bit 0 is a short
// hold excluding concurrent pinners and the releaser; bit 1 marks the
// slot live (published); the counter above detects recycling. Every
// transition changes the word, so an optimistic reader comparing two
// loads (ignoring bit 0) detects any publish or release in between.
const (
	casLocked  uint64 = 1
	casLive    uint64 = 2
	casVerStep uint64 = 4
)

// Group-mode slot words. A batch admission binds all its slots to one
// shared group version cell (a small ring per cascade), so the group
// commit retires the whole batch with a single pin and a single version
// advance instead of one CAS and one store per slot. A bound slot's own
// word carries gmBit, the live bit (so screens treat it as a live
// candidate; the group cell is the authority), the ring index of its
// group cell, and the low counter bits of the cell at binding time.
// Rebinding either word changes the pair, so an optimistic reader that
// validates both the slot word and the group counter detects recycling
// exactly as in direct mode.
const (
	gmBit     uint64 = 1 << 62
	gIdxShift        = 44
	gSnapMask uint64 = 1<<30 - 1
	numGroups        = 64
)

// makeGroupRef builds the slot-word binding for a slot joining the
// group cell gidx whose just-activated word is gw.
func makeGroupRef(gidx uint32, gw uint64) uint64 {
	return gmBit | casLive | uint64(gidx)<<gIdxShift | (gw>>2&gSnapMask)<<2
}

// refGidx extracts the ring index from a group-mode slot word.
func refGidx(v uint64) uint32 { return uint32(v>>gIdxShift) & (numGroups - 1) }

// Group-bound slots also pack their method/key-count meta into the
// binding word (mid in bits 32..39, key count in bits 40..43): batch
// publication skips the per-slot meta store and readers decode it from
// the word they already hold. Group mode therefore requires fewer than
// 256 methods; larger specs always publish direct.
const grpMetaMask uint64 = 0xFFF << 32

// slotMeta decodes a group-bound slot's packed meta into the meta
// column's layout (method id low 16 bits, key count high 16).
func slotMeta(v uint64) uint32 { return uint32(v>>32)&0xFF | uint32(v>>40&0xF)<<16 }

// slotM1 reads a screened slot's method id from its version word
// (group mode) or its meta column (direct mode).
func (c *Cascade) slotM1(s uint32, v uint64) uint16 {
	if v&gmBit != 0 {
		return uint16(v>>32) & 0xFF
	}
	return uint16(c.metas[s].Load())
}

// nilLink terminates intrusive chains; links store index+1.
const nilLink uint32 = 0

// ovTag marks per-transaction chain words that name overflow records
// rather than slot-table slots.
const ovTag uint64 = 1 << 63

// DefaultCascadeSlots sizes the slot table: the largest active window
// the lock-free path can hold before spilling to the overflow list.
const DefaultCascadeSlots = 1 << 13

// maxCascadeKeys bounds how many distinct index keys one method may
// publish (the per-slot key columns are allocated flat).
const maxCascadeKeys = 8

// CascadeConfig tunes a cascade detector.
type CascadeConfig struct {
	// SlotCapacity is the fixed size of the lock-free slot table; 0
	// means DefaultCascadeSlots. Invocations past capacity fall back
	// to a mutex-guarded overflow list — still correct, but every
	// concurrent invocation then takes the slow path, so size for the
	// expected active window.
	SlotCapacity int
	// FilterBits sizes the signature filter at 1<<FilterBits cells; 0
	// means sigfilter.DefaultBits.
	FilterBits int
}

// cascadeKeySlot is one conflict key a method publishes on admission:
// the canonical X term of some pair's disequality guard, compiled
// against the incoming invocation (bound as the first side).
type cascadeKeySlot struct {
	term    core.Term
	extract termFn
	simple  simpleTerm
}

// cascadeGuard is one indexed disequality guard of a pair plan: which
// of the first method's published key columns to probe and the
// compiled evaluator of the guard's probe (Y) term.
type cascadeGuard struct {
	slot  int
	probe termFn
	y     core.Term
}

// simpleTerm is a construction-time classification of key and probe
// terms that need no evaluation context: a plain argument reference,
// the return value, or a constant. The lock-free admission stage
// evaluates these straight off the incoming invocation, skipping the
// pooled checker context — and the large struct copies building one
// implies — entirely.
type simpleTerm struct {
	kind uint8
	idx  int
	cv   core.Value
}

const (
	stNone uint8 = iota // not simple: needs the compiled evaluator
	stArg
	stRet
	stConst
)

// classifySimple classifies t as evaluated against the invocation bound
// on side (First for published keys, Second for probes). Terms off-side
// or with an out-of-signature argument index stay stNone and take the
// compiled route, which reports such errors properly.
func classifySimple(t core.Term, side core.Side, nparams int) simpleTerm {
	switch x := t.(type) {
	case core.ArgTerm:
		if x.Side == side && x.Index >= 0 && x.Index < nparams {
			return simpleTerm{kind: stArg, idx: x.Index}
		}
	case core.RetTerm:
		if x.Side == side {
			return simpleTerm{kind: stRet}
		}
	case core.ConstTerm:
		return simpleTerm{kind: stConst, cv: x.V}
	}
	return simpleTerm{}
}

func (st *simpleTerm) eval(args *core.Vec, ret *core.Value) core.Value {
	switch st.kind {
	case stArg:
		return args.At(st.idx)
	case stRet:
		return *ret
	default:
		return st.cv
	}
}

// fastProbe is one distinct probe term of an incoming method: the
// guard probes of every indexed plan against that method, deduplicated
// by term identity so stage 1 evaluates and hashes each distinct term
// once per invocation rather than once per pair.
type fastProbe struct {
	simple simpleTerm
	probe  termFn
}

// cascadeMethod is the per-method dispatch state the admission path
// reads before touching any shared structure.
type cascadeMethod struct {
	fastProbes []fastProbe
	scanM1s    []uint16 // distinct m1s whose method chains gate stage 1
	// probeKey[i] is the index of this method's published key slot whose
	// simple term equals fastProbes[i]'s (-1 if none): the batch path
	// reuses the key phase's hash instead of re-evaluating the probe.
	probeKey []int8
	// allSimple marks methods whose published keys and probes all
	// evaluate context-free; their invocations run stage 1 with stack
	// state only, no pooled scratch.
	allSimple bool
	// minArgs is the argument count the simple evaluators assume;
	// shorter invocations divert to the compiled route for proper
	// error reporting.
	minArgs int
	// needsMChain marks methods some scan plan walks; only their slots
	// join the per-method chains.
	needsMChain bool
	// selfProbe marks methods whose stage-1 screen reads nothing beyond
	// their own publication: no method-chain gates, and every probe term
	// coincides with a published key. For a batch that is the only live
	// work (and whose keys share no filter cell), such members' probes
	// are tautologies — the batch path admits them without running them.
	selfProbe bool
}

// cascadePlan is the compiled plan for incoming invocations of method
// m2 against active invocations of method m1.
type cascadePlan struct {
	m1, m2 uint16
	check  checkFn
	guards []cascadeGuard
	// scan marks plans with no usable guard decomposition: candidates
	// come from m1's method chain instead of key buckets.
	scan bool
	// never marks constant-false conditions: any live m1 of another
	// transaction is a conflict, no checker run needed.
	never bool
}

// cascadeScratch is the pooled per-invocation working state. The
// compiled-term context's address escapes into term closures, so a
// stack instance would heap-allocate per call; pooling amortizes it.
type cascadeScratch struct {
	ctx        checkCtx
	inv1, inv2 core.Invocation // the invocations ctx points at, by value
	keys       []uint64        // published key hashes of this invocation
	argBuf     []core.Value    // deep-copy target for spilled candidate args

	// Latency-attribution state for this admission: precise-check time
	// accumulated by runCheck (subtracted from the slow-path total to
	// isolate the optimistic-index stage) and optimistic retries taken
	// (flight-record retry count).
	preciseNS int64
	retries   uint16
}

var cascadeScratchPool = sync.Pool{New: func() any { return new(cascadeScratch) }}

func (sc *cascadeScratch) reset() {
	sc.ctx = checkCtx{}
	sc.inv1, sc.inv2 = core.Invocation{}, core.Invocation{}
	sc.keys = sc.keys[:0]
	for i := range sc.argBuf {
		sc.argBuf[i] = core.Value{}
	}
	sc.argBuf = sc.argBuf[:0]
	sc.preciseNS = 0
	sc.retries = 0
}

// ovRecord is one overflow entry: an active invocation that could not
// enter the slot table (table full, or a conflict key core.MapKey
// cannot canonicalize). Overflow records are invisible to the filter;
// the non-zero count forces every incoming invocation through the slow
// path, which scans them under ovMu.
type ovRecord struct {
	used   bool
	txid   uint64
	mid    uint16
	args   core.Vec
	ret    core.Value
	undo   func()
	txNext uint64
}

// Cascade is the lattice-cascade conflict detector. Unlike Forward and
// General it takes no detector-wide lock on the admission fast path;
// Invoke is safe for concurrent use by transactions on distinct
// goroutines. The guarded structure's own thread-safety is the
// caller's business (the exec closure runs outside any cascade lock).
type Cascade struct {
	spec  *core.Spec
	res   core.StateFn
	names []string
	mids  map[string]uint16

	pubs    [][]cascadeKeySlot // per method: conflict keys published on admit
	byM2    [][]cascadePlan    // per incoming method: plans to probe
	mtab    []cascadeMethod    // per method: fast-path dispatch state
	nparams []int              // per method: declared argument count
	maxKeys int

	filter *sigfilter.Filter

	// Slot table, structure-of-arrays. Fields an optimistic traversal
	// screens on (version, key hashes, owner tx, method/key-count
	// meta, chain links) are atomic; full records (args, ret, tx
	// pointer, undo) are only touched with the slot claimed or pinned,
	// with the version word carrying the happens-before edges.
	capSlots uint32
	//commvet:seqlock protects=txids,metas,hashes,txs,argvs,rets
	ver     []atomic.Uint64
	txids   []atomic.Uint64
	metas   []atomic.Uint32 // method id (low 16 bits) | key count (high 16)
	hashes  []atomic.Uint64 // capSlots × maxKeys, slot-major
	nextKey []atomic.Uint32 // capSlots × maxKeys: per-key bucket links
	nextM   []atomic.Uint32 // per-slot method-chain links
	txs     []*engine.Tx
	argvs   []core.Vec
	rets    []core.Value
	undos   []func()
	txNext  []uint64 // per-tx chain; owner-goroutine access only

	free       *sigfilter.Stack
	heads      []atomic.Uint32 // key-hash bucket heads
	bucketMask uint64
	mheads     []atomic.Uint32 // per-method chain heads

	// Batch slot cache: a group release parks its freed slots here (one
	// short mutex section) and the next batch admission reclaims them,
	// skipping the free stack's per-slot link stores in the steady
	// state where batches pop and push the same run of slots. Bounded;
	// overflow spills to the stack, so serial pops never starve.
	bfMu    sync.Mutex
	bfSlots []uint32

	// Group version ring for batch-bound slots (see gmBit). gSize counts
	// each cell's still-live members (written by the binding thread
	// before its transactions can end, then only under relMu); slotCtr
	// remembers each slot's last direct-mode version word across group
	// episodes, so direct words stay unique per slot. Both are plain:
	// every access is inside an exclusive-ownership window whose handoff
	// already carries the happens-before edge.
	groups  []atomic.Uint64
	gClock  atomic.Uint32
	gSize   []uint32
	slotCtr []uint64

	nActive atomic.Int64

	// relMu serializes chain unlinking (pushes stay lock-free); checkMu
	// serializes compiled-checker runs, whose function-application
	// nodes share compile-time scratch buffers; ovMu guards the
	// overflow list.
	relMu   sync.Mutex
	checkMu sync.Mutex
	ovMu    sync.Mutex
	ovCount atomic.Int64
	ovs     []ovRecord
	ovFree  []uint32

	tele *telemetry.Detector
}

// NewCascade constructs a cascade detector for spec with default
// configuration. It fails if any pair condition needs logging (see
// cascadable).
func NewCascade(spec *core.Spec, res core.StateFn) (*Cascade, error) {
	return NewCascadeConfig(spec, res, CascadeConfig{})
}

// NewCascadeConfig is NewCascade with explicit configuration.
func NewCascadeConfig(spec *core.Spec, res core.StateFn, cfg CascadeConfig) (*Cascade, error) {
	names := spec.Sig.MethodNames()
	c := &Cascade{
		spec:  spec,
		res:   res,
		names: names,
		mids:  make(map[string]uint16, len(names)),
	}
	for i, m := range names {
		c.mids[m] = uint16(i)
	}
	c.nparams = make([]int, len(names))
	for i, m := range names {
		if sig, ok := spec.Sig.Method(m); ok {
			c.nparams[i] = len(sig.Params)
		}
	}
	c.pubs = make([][]cascadeKeySlot, len(names))
	c.byM2 = make([][]cascadePlan, len(names))
	for i1, m1 := range names {
		for i2, m2 := range names {
			cond := spec.Cond(m1, m2)
			if _, ok := cond.(core.TrueCond); ok {
				continue
			}
			if err := cascadable(m1, m2, cond, spec.Pure); err != nil {
				return nil, err
			}
			plan := cascadePlan{m1: uint16(i1), m2: uint16(i2), check: compileCond(cond, nil, res)}
			if _, ok := cond.(core.FalseCond); ok {
				plan.never = true
				plan.scan = true
			} else {
				dec := core.DecomposeDiseq(cond, spec.Pure)
				if dec.Indexable && guardsFnFree(dec.Guards) {
					for _, gd := range dec.Guards {
						plan.guards = append(plan.guards, cascadeGuard{
							slot:  c.pubSlotFor(i1, gd.X),
							probe: compileTerm(gd.Y, nil, res),
							y:     gd.Y,
						})
					}
				} else {
					// Guards with function applications would run the
					// compiled nodes' shared scratch on the lock-free
					// path; keep such pairs (and non-decomposable
					// conditions) on the serialized method-chain scan.
					plan.scan = true
				}
			}
			c.byM2[i2] = append(c.byM2[i2], plan)
		}
	}
	for m, ps := range c.pubs {
		if len(ps) > maxCascadeKeys {
			return nil, fmt.Errorf("gatekeeper: cascade: method %s publishes %d index keys (max %d)", names[m], len(ps), maxCascadeKeys)
		}
		if len(ps) > c.maxKeys {
			c.maxKeys = len(ps)
		}
	}
	if c.maxKeys == 0 {
		c.maxKeys = 1
	}

	c.mtab = make([]cascadeMethod, len(names))
	for i2 := range names {
		mt := &c.mtab[i2]
		mt.allSimple = true
		var seen []string
		for pi := range c.byM2[i2] {
			plan := &c.byM2[i2][pi]
			if plan.scan {
				c.mtab[plan.m1].needsMChain = true
				known := false
				for _, m1 := range mt.scanM1s {
					if m1 == plan.m1 {
						known = true
						break
					}
				}
				if !known {
					mt.scanM1s = append(mt.scanM1s, plan.m1)
				}
				continue
			}
			for _, gd := range plan.guards {
				yk := core.TermKey(gd.y)
				dup := false
				for _, k := range seen {
					if k == yk {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				seen = append(seen, yk)
				fp := fastProbe{simple: classifySimple(gd.y, core.Second, c.nparams[i2]), probe: gd.probe}
				if fp.simple.kind == stNone {
					mt.allSimple = false
				} else if fp.simple.kind == stArg && fp.simple.idx+1 > mt.minArgs {
					mt.minArgs = fp.simple.idx + 1
				}
				mt.fastProbes = append(mt.fastProbes, fp)
			}
		}
		for i := range c.pubs[i2] {
			st := &c.pubs[i2][i].simple
			if st.kind == stNone {
				mt.allSimple = false
			} else if st.kind == stArg && st.idx+1 > mt.minArgs {
				mt.minArgs = st.idx + 1
			}
		}
		for pi := range mt.fastProbes {
			idx := int8(-1)
			if fs := mt.fastProbes[pi].simple; fs.kind != stNone {
				for j := range c.pubs[i2] {
					if c.pubs[i2][j].simple == fs {
						idx = int8(j)
						break
					}
				}
			}
			mt.probeKey = append(mt.probeKey, idx)
		}
		mt.selfProbe = len(mt.scanM1s) == 0
		for _, pk := range mt.probeKey {
			if pk < 0 {
				mt.selfProbe = false
				break
			}
		}
	}

	capS := cfg.SlotCapacity
	if capS <= 0 {
		capS = DefaultCascadeSlots
	}
	c.capSlots = uint32(capS)
	K := c.maxKeys
	c.ver = make([]atomic.Uint64, capS)
	c.txids = make([]atomic.Uint64, capS)
	c.metas = make([]atomic.Uint32, capS)
	c.hashes = make([]atomic.Uint64, capS*K)
	c.nextKey = make([]atomic.Uint32, capS*K)
	c.nextM = make([]atomic.Uint32, capS)
	c.txs = make([]*engine.Tx, capS)
	c.argvs = make([]core.Vec, capS)
	c.rets = make([]core.Value, capS)
	c.undos = make([]func(), capS)
	c.txNext = make([]uint64, capS)
	c.free = sigfilter.NewStack(capS)
	bf := capS / 2
	if bf > batchSlotCacheCap {
		bf = batchSlotCacheCap
	}
	c.bfSlots = make([]uint32, 0, bf)
	c.groups = make([]atomic.Uint64, numGroups)
	c.gSize = make([]uint32, numGroups)
	c.slotCtr = make([]uint64, capS)

	nb := 64
	for nb < 2*capS {
		nb <<= 1
	}
	c.heads = make([]atomic.Uint32, nb)
	c.bucketMask = uint64(nb - 1)
	c.mheads = make([]atomic.Uint32, len(names))

	bits := cfg.FilterBits
	if bits <= 0 {
		bits = sigfilter.DefaultBits
	}
	c.filter = sigfilter.New(bits)
	c.tele = telemetry.Register("cascade", spec.Sig.Name, names)
	return c, nil
}

// cascadable rejects conditions the cascade cannot evaluate without a
// log: any state-function application not declared pure. (A pure
// function ignores state, so evaluating it live at check time yields
// exactly what a forward gatekeeper's log would have recorded.)
func cascadable(m1, m2 string, cond core.Cond, pure map[string]bool) error {
	for _, ft := range core.FirstStateFns(cond) {
		if !pure[ft.Fn] {
			return fmt.Errorf("gatekeeper: cascade: condition (%s,%s) applies non-pure %s to the first invocation's state; the cascade keeps no logs — use a forward or general gatekeeper", m1, m2, ft.Fn)
		}
	}
	for _, ft := range secondStateFns(cond) {
		if !pure[ft.Fn] {
			return fmt.Errorf("gatekeeper: cascade: condition (%s,%s) applies non-pure %s to the second invocation's state; the cascade keeps no logs — use a forward or general gatekeeper", m1, m2, ft.Fn)
		}
	}
	return nil
}

// guardsFnFree reports whether every guard term is free of function
// applications (whose compiled scratch buffers must not run on the
// lock-free path).
func guardsFnFree(gds []core.DiseqGuard) bool {
	for _, gd := range gds {
		if termHasFn(gd.X) || termHasFn(gd.Y) {
			return false
		}
	}
	return true
}

func termHasFn(t core.Term) bool {
	switch x := t.(type) {
	case core.FnTerm:
		return true
	case core.ArithTerm:
		return termHasFn(x.L) || termHasFn(x.R)
	}
	return false
}

// pubSlotFor interns a guard's X term among method m1's published key
// slots, so several pairs sharing a key publish (and hash) it once.
func (c *Cascade) pubSlotFor(m1 int, x core.Term) int {
	xk := core.TermKey(x)
	for i, s := range c.pubs[m1] {
		if core.TermKey(s.term) == xk {
			return i
		}
	}
	c.pubs[m1] = append(c.pubs[m1], cascadeKeySlot{
		term:    x,
		extract: compileTerm(x, nil, c.res),
		simple:  classifySimple(x, core.First, c.nparams[m1]),
	})
	return len(c.pubs[m1]) - 1
}

// Invoke runs one guarded invocation for tx: execute, publish the
// conflict signature, then walk the cascade until some stage proves
// commutativity against every live invocation of other transactions.
// On conflict the publication is retracted, the effect undone, and an
// engine.Conflict error returned; the verdict is identical to what a
// forward gatekeeper over the same specification would give.
func (c *Cascade) Invoke(tx *engine.Tx, method string, args core.Vec, exec func() Effect) (core.Value, error) {
	mid, ok := c.mids[method]
	if !ok {
		return core.Value{}, fmt.Errorf("gatekeeper: cascade: unknown method %q", method)
	}
	eff := exec()
	return c.admitKeyed(tx, mid, &args, &eff, nil)
}

// admitKeyed admits one executed invocation and settles it with its
// transaction: attached on success, its effect undone on refusal. keys
// is as for admit. The shard router calls it holding the shard's ticket.
func (c *Cascade) admitKeyed(tx *engine.Tx, mid uint16, args *core.Vec, eff *Effect, keys []uint64) (core.Value, error) {
	word, err := c.admit(tx, mid, args, eff, keys, true)
	if err != nil {
		if eff.Undo != nil {
			eff.Undo()
		}
		return eff.Ret, err
	}
	c.attach(tx, word)
	return eff.Ret, nil
}

// admit is the cascade's one serial admission of an executed
// invocation: publish its record, probe the filter (stage 1), fall to
// the optimistic scans and the precise checker on a hit (stages 2–3),
// and retract the publication on refusal. It returns the record's chain
// word — slot+1, or ovTag|index+1 for an overflow record — and leaves
// settling to the caller: attach the word, or undo the effect (and
// retractWord this word, if a later shard of a rendezvous refuses).
//
// keys are the published key hashes when the caller has already
// evaluated them (the shard router needs them for shard selection),
// nil otherwise. owner marks the one admission per invocation whose
// telemetry counts it.
//
// The effect has run before anything is published here; ROADMAP item 1
// (publish an intent before the effect) changes this function alone.
func (c *Cascade) admit(tx *engine.Tx, mid uint16, args *core.Vec, eff *Effect, keys []uint64, owner bool) (uint64, error) {
	if owner {
		c.tele.IncInvocation()
	}
	t0 := telemetry.LatClock()
	mt := &c.mtab[mid]
	// Simple route: keys and probes evaluate straight off the incoming
	// invocation, so stage 1 runs on stack state alone and sc stays nil
	// until a filter hit or an overflow needs the checker context.
	// Methods with context-dependent terms (or too few arguments, for
	// proper error reporting) bind the pooled scratch up front.
	var sc *cascadeScratch
	if !mt.allSimple || args.Len() < mt.minArgs {
		sc = c.scratch(nil, mid, args, eff)
	}
	var buf [maxCascadeKeys]uint64
	keyable := true
	if keys == nil {
		keys = buf[:0]
		for i := range c.pubs[mid] {
			ks := &c.pubs[mid][i]
			h, kok := termHash(&ks.simple, ks.extract, args, &eff.Ret, sc)
			if !kok {
				keyable = false
				break
			}
			keys = append(keys, h)
		}
	}
	var slot uint32
	if keyable {
		slot, keyable = c.free.Pop()
	}
	if !keyable {
		// Unkeyable key value or full slot table: the overflow list.
		sc = c.scratch(sc, mid, args, eff)
		word, err := c.admitOverflow(tx, mid, eff, sc)
		putScratch(sc)
		return word, err
	}
	c.publishSlot(slot, tx, mid, args, eff.Ret, eff.Undo, keys)
	c.observeActive(c.nActive.Add(1))
	if c.ovCount.Load() == 0 && c.probeFast(mt, args, &eff.Ret, keys, sc) {
		c.tele.CascadeFastAdmit()
		if obsInstrumented(t0) {
			rec := telemetry.FlightRecord{Det: c.tele.ID(), Method: mid, Verdict: telemetry.FlightAdmitted}
			rec.Mark(telemetry.StageSigFilter, since(t0))
			observe(tx, &rec, t0, 1<<telemetry.StageSigFilter)
		}
		putScratch(sc)
		return uint64(slot) + 1, nil
	}
	c.tele.CascadeFilterHit()
	t1 := telemetry.StageObserve(tx.Worker(), telemetry.StageSigFilter, t0)
	sc = c.scratch(sc, mid, args, eff)
	err := c.slowCheck(tx, mid, sc.inv2, sc)
	if obsInstrumented(t1) {
		// The filter stage was observed at t1 and the precise checks one
		// by one in runCheck; what is left of t1→now is the optimistic
		// index.
		rec := telemetry.FlightRecord{Det: c.tele.ID(), Method: mid, Verdict: verdictOf(err), Retries: sc.retries}
		rec.Mark(telemetry.StageSigFilter, t1-t0)
		rec.Mark(telemetry.StageOptIndex, since(t1)-sc.preciseNS)
		rec.Mark(telemetry.StagePrecise, sc.preciseNS)
		observe(tx, &rec, t1, 1<<telemetry.StageOptIndex)
	}
	putScratch(sc)
	if err != nil {
		c.retractSlot(slot)
		return 0, err
	}
	return uint64(slot) + 1, nil
}

// scratch returns sc with the incoming invocation bound, taking it from
// the pool when the admission has none yet.
func (c *Cascade) scratch(sc *cascadeScratch, mid uint16, args *core.Vec, eff *Effect) *cascadeScratch {
	if sc == nil {
		sc = cascadeScratchPool.Get().(*cascadeScratch)
		c.bindCtx(sc, mid, *args, eff.Ret)
	}
	return sc
}

func putScratch(sc *cascadeScratch) {
	if sc != nil {
		sc.reset()
		cascadeScratchPool.Put(sc)
	}
}

// bindCtx binds the incoming invocation on both sides of the scratch
// checker context: publish extractors read the first side, probe
// evaluators the second, and runCheck swaps a candidate in as Inv1
// (probes never read Inv1 again afterwards for the plan being checked).
func (c *Cascade) bindCtx(sc *cascadeScratch, mid uint16, args core.Vec, ret core.Value) core.Invocation {
	inv := core.MakeInvocation(c.names[mid], args, ret)
	sc.inv1, sc.inv2 = inv, inv
	sc.ctx.inv1, sc.ctx.inv2 = &sc.inv1, &sc.inv2
	return inv
}

// termHash evaluates one key or probe term against the incoming
// invocation and hashes its canonical key: straight off the invocation
// on the simple route (sc nil), through the compiled form against the
// bound checker context otherwise. False means the value cannot be
// evaluated or keyed and must be treated as colliding with everything.
func termHash(st *simpleTerm, compiled termFn, args *core.Vec, ret *core.Value, sc *cascadeScratch) (uint64, bool) {
	if sc == nil {
		v := st.eval(args, ret)
		return v.KeyHash()
	}
	v, err := compiled(&sc.ctx)
	if err != nil {
		return 0, false
	}
	return v.KeyHash()
}

// publishSlot fills a claimed slot and makes it discoverable: record
// fields, version goes live, chain pushes, then filter increments —
// in that order, so anyone who sees the filter cells can find the slot.
func (c *Cascade) publishSlot(slot uint32, tx *engine.Tx, mid uint16, args *core.Vec, ret core.Value, undo func(), keys []uint64) {
	K := c.maxKeys
	v := c.ver[slot].Load() // free (bits 00); we are the only claimant
	if v&gmBit != 0 {
		// The slot last retired with its whole batch group: its word is a
		// stale binding to a dead cell. Resume from the direct counter.
		v = c.slotCtr[slot]
	}
	c.txs[slot] = tx
	c.argvs[slot] = *args
	c.rets[slot] = ret
	c.undos[slot] = undo
	c.txids[slot].Store(tx.ID())
	c.metas[slot].Store(uint32(mid) | uint32(len(keys))<<16)
	base := int(slot) * K
	for j, h := range keys {
		c.hashes[base+j].Store(h)
	}
	c.ver[slot].Store(v + casVerStep + casLive)
	if c.mtab[mid].needsMChain {
		c.pushChain(&c.mheads[mid], &c.nextM[slot], slot+1)
	}
	for j, h := range keys {
		c.pushChain(&c.heads[h&c.bucketMask], &c.nextKey[base+j], uint32(base+j)+1)
	}
	for _, h := range keys {
		c.filter.Add(h)
	}
}

func (c *Cascade) pushChain(head, next *atomic.Uint32, link uint32) {
	for {
		old := head.Load()
		next.Store(old)
		if head.CompareAndSwap(old, link) {
			return
		}
	}
}

// probeFast is stage 1: admit if every pair's evidence of absence is
// conclusive — scan-plan chains empty, every probe key hashable, and
// every probed filter cell holding only this invocation's own
// publications. sc selects the term evaluation route as in termHash.
func (c *Cascade) probeFast(mt *cascadeMethod, args *core.Vec, ret *core.Value, keys []uint64, sc *cascadeScratch) bool {
	for _, m1 := range mt.scanM1s {
		if c.mheads[m1].Load() != nilLink {
			return false
		}
	}
	for i := range mt.fastProbes {
		fp := &mt.fastProbes[i]
		h, kok := termHash(&fp.simple, fp.probe, args, ret, sc)
		if !kok {
			return false
		}
		var self int32
		for _, kh := range keys {
			if c.filter.SameCell(kh, h) {
				self++
			}
		}
		if c.filter.Count(h) > self {
			return false
		}
	}
	return true
}

// slowCheck is stages 2–3: discover candidates through lock-free
// optimistic chain scans (retrying on version-stamp races), confirm
// each against the live record under a pin, and run the precise
// compiled checker on the survivors.
func (c *Cascade) slowCheck(tx *engine.Tx, mid uint16, inv core.Invocation, sc *cascadeScratch) error {
	for i := range c.byM2[mid] {
		plan := &c.byM2[mid][i]
		if plan.scan {
			if err := c.scanMethodChain(tx, plan, inv, sc); err != nil {
				return err
			}
			continue
		}
		fallback := false
		for _, gd := range plan.guards {
			v, err := gd.probe(&sc.ctx)
			if err != nil {
				fallback = true
				break
			}
			k, kok := core.MapKey(v)
			if !kok {
				fallback = true
				break
			}
			if err := c.scanBucket(tx, plan, gd.slot, k.Hash(), inv, sc); err != nil {
				return err
			}
		}
		if fallback {
			// A probe key the index cannot canonicalize collides with
			// everything — scan the whole method chain, exactly as the
			// forward gatekeeper's index fallback does.
			if err := c.scanMethodChain(tx, plan, inv, sc); err != nil {
				return err
			}
		}
	}
	if c.ovCount.Load() != 0 {
		if err := c.checkOverflow(tx, mid, inv, sc); err != nil {
			return err
		}
	}
	return nil
}

// scanBucket walks one key bucket lock-free looking for live slots of
// plan.m1 whose keySlot-th hash equals h. After following a link it
// re-reads the slot's version; a recycle (counter or live-bit change)
// means the link may now belong to a different chain, so the walk
// restarts from the head. Pin toggles (bit 0) do not restart.
func (c *Cascade) scanBucket(tx *engine.Tx, plan *cascadePlan, keySlot int, h uint64, inv core.Invocation, sc *cascadeScratch) error {
	c.tele.CascadeScan()
	myID := tx.ID()
	K := c.maxKeys
restart:
	link := c.heads[h&c.bucketMask].Load()
	for link != nilLink {
		li := int(link - 1)
		s := uint32(li / K)
		v := c.ver[s].Load()
		if v&casLive != 0 && li%K == keySlot &&
			c.hashes[li].Load() == h && c.txids[s].Load() != myID &&
			c.slotM1(s, v) == plan.m1 {
			if err := c.checkCandidate(tx, s, v, plan, li, h, inv, sc); err != nil {
				return err
			}
		}
		next := c.nextKey[li].Load()
		if !c.slotStable(s, v) {
			c.tele.CascadeRetry()
			sc.retries++
			goto restart
		}
		link = next
	}
	return nil
}

// slotStable reports whether a slot visited at version word v has not
// been released or recycled since: for direct slots the word itself is
// unchanged (bar the pin bit); for group-bound slots both the word and
// the group cell's counter still match — the group commit advances the
// cell, and an individual retraction rewrites the slot word, so either
// exit invalidates the visit. Walkers rely on this before trusting a
// visited slot's chain link.
func (c *Cascade) slotStable(s uint32, v uint64) bool {
	if v&gmBit != 0 {
		if c.ver[s].Load() != v {
			return false
		}
		gw := c.groups[refGidx(v)].Load()
		return (gw>>2)&gSnapMask == (v>>2)&gSnapMask
	}
	return (c.ver[s].Load()^v)&^casLocked == 0
}

// scanMethodChain walks every live slot of plan.m1, for plans without
// an indexable guard decomposition (or with an unkeyable probe value).
func (c *Cascade) scanMethodChain(tx *engine.Tx, plan *cascadePlan, inv core.Invocation, sc *cascadeScratch) error {
	c.tele.CascadeScan()
	myID := tx.ID()
restart:
	link := c.mheads[plan.m1].Load()
	for link != nilLink {
		s := link - 1
		v := c.ver[s].Load()
		if v&casLive != 0 && c.txids[s].Load() != myID &&
			c.slotM1(s, v) == plan.m1 {
			if err := c.checkCandidate(tx, s, v, plan, -1, 0, inv, sc); err != nil {
				return err
			}
		}
		next := c.nextM[s].Load()
		if !c.slotStable(s, v) {
			c.tele.CascadeRetry()
			sc.retries++
			goto restart
		}
		link = next
	}
	return nil
}

// checkCandidate pins a screened slot, re-verifies it under the pin,
// copies the candidate invocation out, unpins, and runs the precise
// check. li names the hash column to re-verify (-1 for method-chain
// candidates, which have no key constraint).
func (c *Cascade) checkCandidate(tx *engine.Tx, s uint32, seen uint64, plan *cascadePlan, li int, h uint64, inv core.Invocation, sc *cascadeScratch) error {
	clean := seen &^ casLocked
	gpin := seen&gmBit != 0
	var gidx uint32
	var gclean uint64
	if gpin {
		// Group-bound slot: the pin lives on the group cell. Holding it
		// excludes the group commit and any individual retraction of a
		// member, so every member's record is frozen under the pin.
		gidx = refGidx(seen)
		for spins := 0; ; spins++ {
			gw := c.groups[gidx].Load()
			if (gw>>2)&gSnapMask != (seen>>2)&gSnapMask || gw&casLive == 0 {
				return nil // group retired or cell rebound: not a candidate
			}
			gclean = gw &^ casLocked
			if gw&casLocked == 0 && c.groups[gidx].CompareAndSwap(gclean, gclean|casLocked) {
				break
			}
			c.tele.CascadeRetry()
			sc.retries++
			if spins&63 == 63 {
				runtime.Gosched()
			}
		}
		if c.ver[s].Load() != seen { // member individually retracted meanwhile
			c.groups[gidx].Store(gclean)
			return nil
		}
	} else {
		for spins := 0; ; spins++ {
			if c.ver[s].CompareAndSwap(clean, clean|casLocked) {
				break
			}
			if v := c.ver[s].Load(); (v^clean)&^casLocked != 0 {
				return nil // recycled or released: no longer a candidate
			}
			c.tele.CascadeRetry()
			sc.retries++
			if spins&63 == 63 {
				runtime.Gosched()
			}
		}
	}
	// Screened fields can have changed between the screen and the pin
	// only via a full release/republish cycle, which the version CAS
	// above excludes; still, the owner tx check is what makes the
	// screen-to-pin window sound, so re-verify everything cheap.
	holder := c.txids[s].Load()
	if holder == tx.ID() || c.slotM1(s, seen) != plan.m1 ||
		(li >= 0 && c.hashes[li].Load() != h) {
		if gpin {
			c.groups[gidx].Store(gclean)
		} else {
			c.ver[s].Store(clean)
		}
		return nil
	}
	inv1 := core.MakeInvocation(c.names[plan.m1], c.argvs[s], c.rets[s])
	spilled := inv1.Args.Len() > core.MaxInlineArgs
	if spilled {
		// The copied Vec shares the slot's pooled spill slice, which a
		// release may recycle the moment we unpin: deep-copy now.
		sc.argBuf = c.argvs[s].CopySlice(sc.argBuf[:0])
	}
	if gpin { // unpin
		c.groups[gidx].Store(gclean)
	} else {
		c.ver[s].Store(clean)
	}
	if spilled {
		inv1 = core.NewInvocation(inv1.Method, sc.argBuf, inv1.Ret)
		defer inv1.Args.Release()
	}
	return c.runCheck(tx, plan, inv1, inv, holder, sc)
}

// runCheck is stage 3: the pair's precise compiled condition.
func (c *Cascade) runCheck(tx *engine.Tx, plan *cascadePlan, inv1, inv2 core.Invocation, holder uint64, sc *cascadeScratch) error {
	c.tele.Check(plan.m1, plan.m2)
	if plan.never {
		return c.conflict(tx, plan, inv1, inv2, holder)
	}
	pt := telemetry.LatClock()
	saved := sc.inv1
	sc.inv1 = inv1
	c.checkMu.Lock()
	ok, err := plan.check(&sc.ctx)
	c.checkMu.Unlock()
	sc.inv1 = saved
	if pt != 0 {
		// Stage 3: each precise evaluation lands in the histogram on its
		// own; the accumulated sum lets the caller subtract it back out
		// of the optimistic-index stage.
		sc.preciseNS += telemetry.StageObserve(tx.Worker(), telemetry.StagePrecise, pt) - pt
	}
	if err != nil {
		return fmt.Errorf("gatekeeper: cascade: checking %s against active %s: %w", inv2.Method, inv1.Method, err)
	}
	if !ok {
		return c.conflict(tx, plan, inv1, inv2, holder)
	}
	return nil
}

func (c *Cascade) conflict(tx *engine.Tx, plan *cascadePlan, inv1, inv2 core.Invocation, holder uint64) error {
	c.tele.Conflict(plan.m1, plan.m2)
	if telemetry.TraceEnabled() {
		telemetry.EmitConflict(tx.Worker(), tx.ID(), tx.Item(), c.tele.ID(), plan.m1, plan.m2)
	}
	return engine.ConflictBy(holder, "cascade: %s%v does not commute with active %s%v",
		inv2.Method, inv2.Args, inv1.Method, inv1.Args)
}

// checkOverflow runs the precise check against every live overflow
// record of another transaction.
func (c *Cascade) checkOverflow(tx *engine.Tx, mid uint16, inv core.Invocation, sc *cascadeScratch) error {
	myID := tx.ID()
	c.ovMu.Lock()
	defer c.ovMu.Unlock()
	for i := range c.ovs {
		r := &c.ovs[i]
		if !r.used || r.txid == myID {
			continue
		}
		for pi := range c.byM2[mid] {
			plan := &c.byM2[mid][pi]
			if plan.m1 != r.mid {
				continue
			}
			inv1 := core.MakeInvocation(c.names[r.mid], r.args, r.ret)
			if err := c.runCheck(tx, plan, inv1, inv, r.txid, sc); err != nil {
				return err
			}
		}
	}
	return nil
}

// admitOverflow is admit for invocations the slot table cannot hold.
// The record is published (under ovMu, with the count as its
// "signature") before the slow-path probe, preserving the
// at-least-one-sees guarantee against concurrent fast-path invocations,
// whose stage-1 admission requires a zero overflow count.
func (c *Cascade) admitOverflow(tx *engine.Tx, mid uint16, eff *Effect, sc *cascadeScratch) (uint64, error) {
	inv := sc.inv2
	c.tele.CascadeFallback()
	c.ovMu.Lock()
	var idx uint32
	if n := len(c.ovFree); n > 0 {
		idx = c.ovFree[n-1]
		c.ovFree = c.ovFree[:n-1]
	} else {
		c.ovs = append(c.ovs, ovRecord{})
		idx = uint32(len(c.ovs) - 1)
	}
	c.ovs[idx] = ovRecord{used: true, txid: tx.ID(), mid: mid, args: inv.Args, ret: inv.Ret, undo: eff.Undo}
	c.ovCount.Add(1)
	c.ovMu.Unlock()
	c.observeActive(c.nActive.Add(1))

	if err := c.slowCheck(tx, mid, inv, sc); err != nil {
		c.retractOverflow(idx)
		return 0, err
	}
	return ovTag | uint64(idx+1), nil
}

// attach threads a freshly admitted record onto the transaction's
// chain, registering the cascade's undo and release hooks on first
// contact (one registration per transaction, allocation-free).
func (c *Cascade) attach(tx *engine.Tx, word uint64) {
	var p *uint64
	if tx.OnEnd(c) {
		// End owner: the chain head lives in the transaction's end word —
		// no attachment scan here, no attachment clear at commit.
		p = tx.EndWord()
	} else {
		var isNew bool
		p, isNew = tx.Attach(c)
		if isNew {
			tx.OnUndoer(c)
			tx.OnReleaser(c)
		}
	}
	if word&ovTag == 0 {
		c.txNext[word-1] = *p
	} else {
		c.ovMu.Lock()
		c.ovs[(word&^ovTag)-1].txNext = *p
		c.ovMu.Unlock()
	}
	*p = word
}

// UndoTx rolls back the transaction's cascade-guarded effects, newest
// first (the chain is in prepend order). The records stay live —
// other transactions must keep conflicting with them — until ReleaseTx
// frees them after the undo phase.
//
// The cascade registers itself once per transaction, so its undo
// actions run contiguously at the position of the transaction's first
// cascade invocation in the engine's LIFO hook order. A transaction
// interleaving cascade invocations with other undo-hooked mutations
// of the same state would see those undos reordered relative to a
// per-invocation-hook detector; transactions in this codebase touch
// disjoint state per detector, where the order is immaterial.
// txWord locates the transaction's cascade chain head: the Attach
// entry when the cascade lost the end-owner slot (attach's fallback
// registered hooks there), the end word otherwise. Lookup order
// matters — an Attach entry, when present, is always the cascade's.
func (c *Cascade) txWord(tx *engine.Tx) *uint64 {
	if p := tx.AttachedWord(c); p != nil {
		return p
	}
	return tx.EndWord()
}

func (c *Cascade) UndoTx(tx *engine.Tx) {
	p := c.txWord(tx)
	for w := *p; w != 0; {
		if w&ovTag == 0 {
			s := uint32(w - 1)
			if u := c.undos[s]; u != nil {
				c.undos[s] = nil
				u()
			}
			w = c.txNext[s]
		} else {
			c.ovMu.Lock()
			r := &c.ovs[(w&^ovTag)-1]
			u := r.undo
			r.undo = nil
			next := r.txNext
			c.ovMu.Unlock()
			if u != nil {
				u()
			}
			w = next
		}
	}
}

// ReleaseTx frees every record the transaction published: one relMu
// acquisition batches all the unlinking and signature retraction at
// commit (or after undo at abort), instead of paying the release
// fences per invocation.
func (c *Cascade) ReleaseTx(tx *engine.Tx) {
	p := c.txWord(tx)
	w := *p
	if w == 0 {
		return
	}
	t0 := telemetry.LatClock()
	*p = 0
	c.relMu.Lock()
	for w != 0 {
		if w&ovTag == 0 {
			s := uint32(w - 1)
			next := c.txNext[s]
			c.releaseSlotLocked(s)
			w = next
		} else {
			w = c.retractOverflow(uint32(w&^ovTag) - 1)
		}
	}
	c.relMu.Unlock()
	telemetry.StageObserve(tx.Worker(), telemetry.StageCommit, t0)
}

// retractSlot withdraws a publication whose invocation was rejected
// (the record never joined a transaction chain).
func (c *Cascade) retractSlot(slot uint32) {
	c.relMu.Lock()
	c.releaseSlotLocked(slot)
	c.relMu.Unlock()
}

// retractOverflow frees one overflow record — a rejected publication,
// or a transaction's at release — and returns its per-tx chain link.
func (c *Cascade) retractOverflow(idx uint32) uint64 {
	c.ovMu.Lock()
	r := &c.ovs[idx]
	next := r.txNext
	r.args.Release()
	*r = ovRecord{}
	c.ovFree = append(c.ovFree, idx)
	c.ovCount.Add(-1)
	c.ovMu.Unlock()
	c.nActive.Add(-1)
	return next
}

// releaseSlotLocked frees one live slot: waits out pinners by taking
// the version lock, unlinks the chains, retracts the filter cells,
// zeroes the record and recycles the slot. Caller holds relMu.
func (c *Cascade) releaseSlotLocked(s uint32) {
	c.releaseSlotCore(s)
	c.free.Push(s)
	c.nActive.Add(-1)
}

// releaseSlotCore is releaseSlotLocked without the free-stack push and
// active-count decrement, so batch releases can splice all their freed
// slots back with one stack operation and one counter update. Caller
// holds relMu and must return the slot to the stack itself. Group-bound
// slots (a batch member retired alone: a split suffix, a hand-committed
// transaction) pin their group cell for the teardown, rewrite the slot
// word back to direct mode, and retire the cell with the last member.
func (c *Cascade) releaseSlotCore(s uint32) {
	if v := c.ver[s].Load(); v&gmBit != 0 {
		gidx := refGidx(v)
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
		c.teardownSlot(s, slotMeta(v))
		w := c.slotCtr[s] + casVerStep
		c.slotCtr[s] = w
		c.ver[s].Store(w) // direct-mode free word: unbinds from the group
		c.gSize[gidx]--
		if c.gSize[gidx] == 0 {
			c.groups[gidx].Store((gclean &^ casLive) + casVerStep)
		} else {
			c.groups[gidx].Store(gclean)
		}
		return
	}
	var v uint64
	for spins := 0; ; spins++ {
		v = c.ver[s].Load()
		if v&casLocked == 0 && c.ver[s].CompareAndSwap(v, v|casLocked) {
			break
		}
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
	c.teardownSlot(s, c.metas[s].Load())
	w := (v &^ (casLocked | casLive)) + casVerStep
	c.slotCtr[s] = w
	c.ver[s].Store(w)
}

// teardownSlot unlinks a slot's chains, retracts its filter cells and
// zeroes its record; mv is the slot's meta word (read from the meta
// column or decoded from a group binding, by mode). Caller holds relMu
// and excludes concurrent pinners (slot pin or group pin, by mode); the
// version or group word advance that makes the teardown visible is the
// caller's.
//
//commvet:ignore the version advance that publishes this teardown is deliberately the caller's (retireSlot / group retirement)
func (c *Cascade) teardownSlot(s uint32, mv uint32) {
	K := c.maxKeys
	base := int(s) * K
	for j := 0; j < int(mv>>16); j++ {
		h := c.hashes[base+j].Load()
		unlink(&c.heads[h&c.bucketMask], c.nextKey, uint32(base+j)+1)
		c.filter.Remove(h)
	}
	if c.mtab[uint16(mv)].needsMChain {
		unlink(&c.mheads[uint16(mv)], c.nextM, s+1)
	}
	c.argvs[s].Release()
	c.rets[s] = core.Value{}
	c.txs[s] = nil
	c.undos[s] = nil
	c.txNext[s] = 0
}

// unlink removes a link from an intrusive chain threaded through next
// (a key bucket chain through nextKey, a method chain through nextM).
// Interior next fields are only written by unlinkers (serialized under
// relMu) and by owners before publication, so a CAS can fail only at
// the head, where concurrent lock-free pushes land; the walk then
// retries.
func unlink(head *atomic.Uint32, next []atomic.Uint32, target uint32) {
	for {
		prev := head
		cur := prev.Load()
		for cur != nilLink && cur != target {
			prev = &next[cur-1]
			cur = prev.Load()
		}
		if cur == nilLink {
			return
		}
		if prev.CompareAndSwap(cur, next[cur-1].Load()) {
			return
		}
	}
}

func (c *Cascade) observeActive(n int64) {
	c.tele.ObserveActive(int(n))
}

// ActiveInvocations reports how many invocations are currently live
// (slot table plus overflow).
func (c *Cascade) ActiveInvocations() int { return int(c.nActive.Load()) }

// Stats returns the detector's counters (cascade stages included).
func (c *Cascade) Stats() Stats { return c.tele.Snapshot() }

// Telemetry exposes the detector's telemetry handle.
func (c *Cascade) Telemetry() *telemetry.Detector { return c.tele }
