package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"commlat/internal/adt/intset"
	"commlat/internal/engine"
	"commlat/internal/parameter"
	"commlat/internal/workload"
)

// The three set workloads share one scenario type; the mode picks the
// operation stream and how it is driven.
type setMode int

const (
	setStream  setMode = iota // add/contains over distinct keys, one op per transaction
	setChurn                  // add/remove/contains over a few keys, conflicts on purpose
	setBatched                // distinct adds through batched admission and group commit
)

var setDetectors = []string{"cascade", "global", "rw", "forward", "sharded"}

const (
	opAdd uint8 = iota
	opRemove
	opContains
)

type setOp struct {
	kind uint8
	x    int64
}

// churnWindow is the number of transactions the 1-thread set-churn run
// keeps live at once, and the operations per transaction of its
// 2-worker run.
const churnWindow = 4

type setScenario struct {
	mode setMode
	sz   sizes
	seed int64
	// The map-model replay of the stream in order: every return value
	// and the final contents.
	wantRet []bool
	wantSet []int64
}

func newSet(mode setMode, sz sizes, seed int64) *setScenario {
	s := &setScenario{mode: mode, sz: sz, seed: seed}
	ops := s.ops()
	model := map[int64]bool{}
	s.wantRet = make([]bool, len(ops))
	for i, op := range ops {
		switch op.kind {
		case opAdd:
			s.wantRet[i] = !model[op.x]
			model[op.x] = true
		case opRemove:
			s.wantRet[i] = model[op.x]
			delete(model, op.x)
		default:
			s.wantRet[i] = model[op.x]
		}
	}
	for x := range model {
		s.wantSet = append(s.wantSet, x)
	}
	slices.Sort(s.wantSet)
	return s
}

// ops generates the operation stream from the seed.
func (s *setScenario) ops() []setOp {
	n := s.sz.Ops
	ops := make([]setOp, n)
	switch s.mode {
	case setStream:
		for i, op := range workload.SetOpsDistinct(n, s.seed) {
			ops[i] = setOp{kind: opContains, x: op.X}
			if op.Add {
				ops[i].kind = opAdd
			}
		}
	case setChurn:
		// 40% add, 40% remove, 20% contains over sz.Keys keys: nearly
		// every operation meets a live transaction on its key's filter
		// bucket, and a known share of them truly conflict.
		r := rand.New(rand.NewSource(s.seed))
		for i := range ops {
			switch p := r.Intn(10); {
			case p < 4:
				ops[i].kind = opAdd
			case p < 8:
				ops[i].kind = opRemove
			default:
				ops[i].kind = opContains
			}
			ops[i].x = int64(r.Intn(s.sz.Keys))
		}
	case setBatched:
		for i, x := range rand.New(rand.NewSource(s.seed)).Perm(n) {
			ops[i] = setOp{kind: opAdd, x: int64(x)}
		}
	}
	return ops
}

func (s *setScenario) sequential() time.Duration {
	ops := s.ops()
	rep := intset.NewHashRep()
	t0 := time.Now()
	for _, op := range ops {
		switch op.kind {
		case opAdd:
			rep.Add(op.x)
		case opRemove:
			rep.Remove(op.x)
		default:
			rep.Contains(op.x)
		}
	}
	return time.Since(t0)
}

// batchAdder is the batched admission entry point of the two cascades.
type batchAdder interface {
	AddBatch(txs []*engine.Tx, xs []int64, rets []bool, errs []error) int
}

func (s *setScenario) setup(variant string) (instance, error) {
	in := &setInstance{s: s, ops: s.ops()}
	switch variant {
	case "cascade":
		c := intset.NewCascaded(intset.NewHashRep())
		in.set, in.live = c, c.Cascade().ActiveInvocations
	case "sharded":
		c := intset.NewShardedCascaded(func() intset.Rep { return intset.NewHashRep() }, 8)
		in.set, in.live = c, c.Sharded().ActiveInvocations
	case "global":
		in.set = intset.NewGlobalLock(intset.NewHashRep())
	case "rw":
		in.set = intset.NewRWLocked(intset.NewHashRep())
	case "forward":
		in.set = intset.NewGatekept(intset.NewHashRep())
	default:
		return nil, fmt.Errorf("set: unknown detector %q", variant)
	}
	if s.mode == setBatched {
		if _, ok := in.set.(batchAdder); !ok {
			return nil, fmt.Errorf("set-batched: detector %q has no AddBatch", variant)
		}
		in.xs = make([]int64, len(in.ops))
		for i, op := range in.ops {
			in.xs[i] = op.x
		}
	}
	// The work items are positions in the stream; a 2-worker set-churn
	// transaction takes churnWindow operations starting at its item.
	if s.mode == setChurn {
		for i := 0; i < len(in.ops); i += churnWindow {
			in.groups = append(in.groups, i)
		}
	}
	in.idx = make([]int, len(in.ops))
	for i := range in.idx {
		in.idx[i] = i
	}
	in.rets = make([]bool, len(in.ops))
	return in, nil
}

type setInstance struct {
	s      *setScenario
	ops    []setOp
	set    intset.Set
	live   func() int // invocations the detector still holds; nil if it cannot say
	idx    []int      // one item per operation
	groups []int      // one item per 2-worker transaction
	xs     []int64    // set-batched: the keys, as AddBatch takes them
	rets   []bool     // return value of each operation's committed attempt
}

func apply(s intset.Set, tx *engine.Tx, op setOp) (bool, error) {
	switch op.kind {
	case opAdd:
		return s.Add(tx, op.x)
	case opRemove:
		return s.Remove(tx, op.x)
	default:
		return s.Contains(tx, op.x)
	}
}

func (in *setInstance) run(workers int) runResult {
	var stats engine.Stats
	var err error
	t0 := time.Now()
	switch {
	case in.s.mode == setBatched:
		stats, err = in.runBatched(workers)
	case in.s.mode == setChurn && workers == 1:
		return in.windowRun(churnWindow)
	case in.s.mode == setChurn:
		// The commit order is the scheduler's, so only the order-free
		// check applies — and the unmodified cascade fails it: an effect
		// runs before its invocation is published, and a concurrent
		// invocation on the same key can read an effect that is then
		// undone (README, finding 4). A yardstick that always fails
		// measures nothing, so this one mode reports the damage as a
		// count and fails only on what still must hold.
		stats, err = engine.RunItems(in.groups, engine.Options{Workers: workers},
			func(tx *engine.Tx, g int, _ *engine.Worklist[int]) error {
				for i := g; i < g+churnWindow && i < len(in.ops); i++ {
					r, err := apply(in.set, tx, in.ops[i])
					if err != nil {
						return err
					}
					in.rets[i] = r
				}
				return nil
			})
	default:
		stats, err = engine.RunItems(in.idx, engine.Options{Workers: workers},
			func(tx *engine.Tx, i int, _ *engine.Worklist[int]) error {
				r, err := apply(in.set, tx, in.ops[i])
				in.rets[i] = r
				return err
			})
	}
	wall := time.Since(t0)
	if in.s.mode == setChurn {
		return runResult{stats: stats, wall: wall, err: in.drained(err), unserializable: in.unbalanced()}
	}
	return runResult{stats: stats, wall: wall, err: in.check(true, err)}
}

func (in *setInstance) windowRun(n int) runResult {
	t0 := time.Now()
	stats, err := in.window(n)
	return runResult{stats: stats, wall: time.Since(t0), err: in.check(true, err)}
}

// window drives the stream from one thread with n transactions live at
// once: each operation runs in its own transaction, which stays open
// until the window is full and the oldest commits. On a conflict the
// oldest commits and the operation retries, so the abort count is a
// property of the detector's verdicts, the same on every run. This is
// bench.RunSetMicro's method with remove and pooled transactions.
func (in *setInstance) window(n int) (engine.Stats, error) {
	var stats engine.Stats
	open := make([]*engine.Tx, n) // ring of live transactions
	head, live := 0, 0
	commitOldest := func() {
		tx := open[head]
		tx.Commit()
		engine.PutTx(tx)
		head = (head + 1) % n
		live--
	}
	for i, op := range in.ops {
		for {
			tx := engine.GetTx()
			r, err := apply(in.set, tx, op)
			if err == nil {
				*in.slot(i) = r
				open[(head+live)%n] = tx
				live++
				if live == n {
					commitOldest()
				}
				break
			}
			tx.Abort()
			engine.PutTx(tx)
			if !engine.IsConflict(err) || live == 0 {
				return stats, fmt.Errorf("set: op %d refused with nothing live: %w", i, err)
			}
			stats.Aborts++
			commitOldest()
		}
	}
	for live > 0 {
		commitOldest()
	}
	stats.Committed = uint64(len(in.ops))
	return stats, nil
}

var retsPool = sync.Pool{New: func() any { return new([]bool) }}

func (in *setInstance) runBatched(workers int) (engine.Stats, error) {
	ba := in.set.(batchAdder)
	return engine.RunItemsBatched(in.xs, engine.Options{Workers: workers, BatchSize: in.s.sz.Batch},
		func(txs []*engine.Tx, xs []int64, _ *engine.Worklist[int64], errs []error) error {
			rp := retsPool.Get().(*[]bool)
			if cap(*rp) < len(xs) {
				*rp = make([]bool, len(xs))
			}
			rets := (*rp)[:len(xs)]
			ba.AddBatch(txs, xs, rets, errs)
			for i, x := range xs {
				if errs[i] == nil {
					in.rets[x] = rets[i]
				}
			}
			retsPool.Put(rp)
			return nil
		})
}

// slot is where operation i's return value is kept. set-batched hands
// the engine keys, not positions, so it keeps results by key; its keys
// are a permutation of the positions.
func (in *setInstance) slot(i int) *bool {
	if in.s.mode == setBatched {
		return &in.rets[in.ops[i].x]
	}
	return &in.rets[i]
}

// check verifies a finished run. With exact set, operations took effect in stream order (or their results do not
// depend on order), so every return value and the contents must equal
// the model replay. Otherwise the commit order is unknown and the check
// is the one that holds for any serial order: per key, successful adds
// minus successful removes is 1 if the key is in the set and 0 if not.
func (in *setInstance) check(exact bool, err error) error {
	if err = in.drained(err); err != nil {
		return err
	}
	if !exact {
		if k := in.unbalanced(); k != 0 {
			return fmt.Errorf("set: %d keys whose adds minus removes is not their membership", k)
		}
		return nil
	}
	got := in.set.Snapshot()
	slices.Sort(got)
	for i := range in.ops {
		if *in.slot(i) != in.s.wantRet[i] {
			return fmt.Errorf("set: op %d returned %v, model %v", i, *in.slot(i), in.s.wantRet[i])
		}
	}
	if !slices.Equal(got, in.s.wantSet) {
		return fmt.Errorf("set: %d elements, model has %d", len(got), len(in.s.wantSet))
	}
	return nil
}

// drained passes err through and checks the detector let go of
// everything.
func (in *setInstance) drained(err error) error {
	if err == nil && in.live != nil && in.live() != 0 {
		err = fmt.Errorf("set: detector holds %d invocations after the run", in.live())
	}
	return err
}

// unbalanced counts the keys that no serial order of the operations
// explains: successful adds minus successful removes must be 1 for a key
// in the set and 0 for one that is not.
func (in *setInstance) unbalanced() int {
	balance := map[int64]int{}
	for i, op := range in.ops {
		if *in.slot(i) {
			switch op.kind {
			case opAdd:
				balance[op.x]++
			case opRemove:
				balance[op.x]--
			}
		}
	}
	for _, x := range in.set.Snapshot() {
		balance[x]--
	}
	bad := 0
	for _, b := range balance {
		if b != 0 {
			bad++
		}
	}
	return bad
}

// profile schedules the stream one operation per iteration.
func (in *setInstance) profile() (parameter.Result, error) {
	res, err := parameter.Profile(in.idx, func(tx *engine.Tx, i int, _ func(int)) (bool, error) {
		r, err := apply(in.set, tx, in.ops[i])
		*in.slot(i) = r
		return true, err
	})
	// Rounds reorder conflicting operations, so only the order-free check
	// applies.
	return res, in.check(false, err)
}

// traced drives the stream one operation (set-batched: one batch) per
// transaction through a wrapper that adds a child span per guarded call.
func (in *setInstance) traced(rec *recorder) runResult {
	ts := &tracedSet{Set: in.set, rec: rec}
	var stats engine.Stats
	var err error
	t0 := time.Now()
	rec.begin(spRun, -1)
	if in.s.mode == setBatched {
		stats, err = in.tracedBatches(rec)
	} else {
		stats, err = tracedLoop(rec, in.idx, func(tx *engine.Tx, i int, _ func(int)) error {
			r, err := apply(ts, tx, in.ops[i])
			in.rets[i] = r
			return err
		})
	}
	rec.end()
	return runResult{stats: stats, wall: time.Since(t0), err: in.check(true, err)}
}

// tracedBatches is tracedLoop for batched admission: AddBatch commits
// its batch itself (engine.CommitBatch), so the body span includes the
// group commit and there is no commit span.
func (in *setInstance) tracedBatches(rec *recorder) (engine.Stats, error) {
	var stats engine.Stats
	n := len(in.xs)
	ba := in.set.(batchAdder)
	b := in.s.sz.Batch
	txs := make([]*engine.Tx, b)
	rets := make([]bool, b)
	errs := make([]error, b)
	for lo := 0; lo < n; lo += b {
		hi := lo + b
		if hi > n {
			hi = n
		}
		k, m := int64(lo/b), hi-lo
		rec.begin(spItem, k)
		rec.first(spBegin, k)
		for i := 0; i < m; i++ {
			txs[i] = engine.GetTx()
		}
		rec.then(spBody, k)
		rec.first(adtAddBatch, -1)
		ba.AddBatch(txs[:m], in.xs[lo:hi], rets[:m], errs[:m])
		rec.endAt(rec.end())
		for i := 0; i < m; i++ {
			if errs[i] != nil {
				rec.end()
				return stats, fmt.Errorf("traced pass: add(%d): %w", in.xs[lo+i], errs[i])
			}
			in.rets[in.xs[lo+i]] = rets[i]
		}
		rec.begin(spRecycle, k)
		for i := 0; i < m; i++ {
			engine.PutTx(txs[i])
		}
		rec.endAt(rec.end())
		stats.Committed += uint64(m)
	}
	return stats, nil
}

// tracedSet wraps a set with a child span per guarded call.
type tracedSet struct {
	intset.Set
	rec *recorder
}

func (t *tracedSet) Add(tx *engine.Tx, x int64) (bool, error) {
	t.rec.begin(adtAdd, -1)
	defer t.rec.end()
	return t.Set.Add(tx, x)
}

func (t *tracedSet) Remove(tx *engine.Tx, x int64) (bool, error) {
	t.rec.begin(adtRemove, -1)
	defer t.rec.end()
	return t.Set.Remove(tx, x)
}

func (t *tracedSet) Contains(tx *engine.Tx, x int64) (bool, error) {
	t.rec.begin(adtContains, -1)
	defer t.rec.end()
	return t.Set.Contains(tx, x)
}
