package abslock

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// These tests run one manager under real concurrency and scripted
// schedules; fuzz_test.go checks its verdicts against the lock model.

// releaseFunc is a closure as an engine.Releaser, for tests.
type releaseFunc func()

func (f releaseFunc) ReleaseTx(*engine.Tx) { f() }

// stressSpec is a minimal updater/observer spec: updates to the same
// datum never commute, updates and observations of the same datum never
// commute, observations always commute — i.e. per-key writer/reader
// exclusion, ideal for invariant checking under real concurrency.
func stressSpec() *core.Spec {
	sig := &core.ADTSig{Name: "cell", Methods: []core.MethodSig{
		{Name: "upd", Params: []string{"k"}},
		{Name: "obs", Params: []string{"k"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	ne := core.Ne(core.Arg1(0), core.Arg2(0))
	s.Set("upd", "upd", ne)
	s.Set("upd", "obs", ne)
	s.Set("obs", "obs", core.True())
	return s
}

// TestManagerStripedConcurrentStress hammers one manager from many
// goroutines under the race detector, checking the writer/reader
// exclusion the scheme promises with per-key atomic occupancy counters,
// and that the table drains completely afterwards.
func TestManagerStripedConcurrentStress(t *testing.T) {
	scheme, err := Synthesize(stressSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(scheme.Reduce(), nil)

	const nKeys = 16
	var occupancy [nKeys]atomic.Int32 // writers << 16 | readers
	var violations atomic.Int32

	workers := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 300; op++ {
				tx := engine.NewTx()
				k := int64(r.Intn(nKeys))
				write := r.Intn(3) == 0
				method := "obs"
				if write {
					method = "upd"
				}
				err := pre(m, tx, method, core.MakeVec(core.V(k)))
				if err == nil {
					// Claim the key and validate exclusion. The release
					// hook below is registered after the manager's own,
					// so it runs first at transaction end — while the
					// abstract lock is still held.
					if write {
						v := occupancy[k].Add(1 << 16)
						if v != 1<<16 {
							violations.Add(1)
						}
						tx.OnReleaser(releaseFunc(func() { occupancy[k].Add(-(1 << 16)) }))
					} else {
						v := occupancy[k].Add(1)
						if v>>16 != 0 {
							violations.Add(1)
						}
						tx.OnReleaser(releaseFunc(func() { occupancy[k].Add(-1) }))
					}
					tx.Commit()
				} else {
					if !engine.IsConflict(err) {
						t.Errorf("unexpected error: %v", err)
					}
					tx.Abort()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d exclusion violations (concurrent conflicting holders)", n)
	}
	if n := m.HeldLocks(); n != 0 {
		t.Fatalf("manager leaked %d locks", n)
	}
	var total int32
	for i := range occupancy {
		total += occupancy[i].Load()
	}
	if total != 0 {
		t.Fatalf("occupancy counters did not drain: %d", total)
	}
}

// moveSpec is a reader/two-datum-writer spec in the shape of Borůvka's
// component lists and the flow graph's pushFlow: gets of one datum
// share, a move conflicts with anything touching either of its datums.
// Its reduced scheme has one read mode (get:r) and two write modes
// (move:a, move:b), each write mode covering all three.
func moveSpec() *core.Spec {
	sig := &core.ADTSig{Name: "moves", Methods: []core.MethodSig{
		{Name: "get", Params: []string{"r"}, HasRet: true},
		{Name: "move", Params: []string{"a", "b"}},
	}}
	s := core.NewSpec(sig)
	s.Set("get", "get", core.True())
	s.Set("get", "move", core.And(
		core.Ne(core.Arg1(0), core.Arg2(0)),
		core.Ne(core.Arg1(0), core.Arg2(1)),
	))
	s.Set("move", "move", core.And(
		core.Ne(core.Arg1(0), core.Arg2(0)),
		core.Ne(core.Arg1(0), core.Arg2(1)),
		core.Ne(core.Arg1(1), core.Arg2(0)),
		core.Ne(core.Arg1(1), core.Arg2(1)),
	))
	return s
}

// sizeClearSpec is all ds-lock: sizes share, a clear excludes everything.
// Its reduced scheme has the two ds modes, clear:ds covering both.
func sizeClearSpec() *core.Spec {
	sig := &core.ADTSig{Name: "sized", Methods: []core.MethodSig{
		{Name: "size", HasRet: true},
		{Name: "clear"},
	}}
	s := core.NewSpec(sig)
	s.Set("size", "size", core.True())
	s.Set("size", "clear", core.False())
	s.Set("clear", "clear", core.False())
	return s
}

// TestReentrantScenarios walks the owner-side paths one at a time —
// each scripted schedule names the route every acquisition must take —
// for data locks (moveSpec) and for the ds-lock (sizeClearSpec), which is
// a datum too: it owns a cell, but is no data lock to HeldLocks.
func TestReentrantScenarios(t *testing.T) {
	type step struct {
		tx       int
		method   string
		args     []int64
		conflict bool
		by       int // if non-zero, the refusal must name transaction by-1
	}
	get := func(tx int, k int64) step { return step{tx: tx, method: "get", args: []int64{k}} }
	move := func(tx int, a, b int64) step { return step{tx: tx, method: "move", args: []int64{a, b}} }
	size := func(tx int) step { return step{tx: tx, method: "size"} }
	clear := func(tx int) step { return step{tx: tx, method: "clear"} }
	refused := func(s step) step { s.conflict = true; return s }
	refusedBy := func(holder int, s step) step { s.conflict, s.by = true, holder+1; return s }

	scenarios := []struct {
		name      string
		ds        bool // on sizeClearSpec
		steps     []step
		reentrant uint64 // acquisitions granted against the owner's own hold
		fast      int    // live fast slots afterwards
		held      int    // distinct data locks afterwards
		abort     []int  // transactions to abort before the drain check
	}{
		{
			name:      "same-mode re-acquire",
			steps:     []step{get(0, 1), get(0, 1), get(0, 1)},
			reentrant: 2, fast: 1, held: 1,
		},
		{
			name:      "covered-mode re-acquire",
			steps:     []step{move(0, 1, 2), get(0, 1), get(0, 2), move(0, 2, 1)},
			reentrant: 4, fast: 2, held: 2,
		},
		{
			name:      "upgrade alone, visible to others",
			steps:     []step{get(0, 1), move(0, 1, 2), refused(get(1, 1)), refused(get(1, 2))},
			reentrant: 1, fast: 2, held: 2,
		},
		{
			name: "upgrade refused by a foreign compatible reader",
			steps: []step{get(0, 1), get(1, 1), refused(move(0, 1, 1)), refused(move(1, 1, 1)),
				get(0, 1), refused(move(2, 1, 3))},
			reentrant: 1, fast: 1, held: 1,
		},
		{
			name:      "mixed held and new datums",
			steps:     []step{get(0, 1), move(0, 1, 2), move(0, 3, 1), refused(get(1, 3))},
			reentrant: 2, fast: 3, held: 3,
		},
		{
			name: "mixed plan refused on the new datum keeps the upgrade",
			steps: []step{get(1, 2), get(0, 1), refused(move(0, 1, 2)), refused(get(2, 1)),
				get(2, 2)},
			reentrant: 1, fast: 2, held: 2,
		},
		{
			name:      "abort after an in-place upgrade",
			steps:     []step{get(0, 1), move(0, 1, 1)},
			reentrant: 2, fast: 1, held: 1,
			abort: []int{0},
		},
		{
			name: "covered ds re-acquisition", ds: true,
			steps:     []step{clear(0), size(0), clear(0), refusedBy(0, size(1))},
			reentrant: 2, fast: 1,
		},
		{
			name: "ds upgrade alone, visible to others", ds: true,
			steps:     []step{size(0), clear(0), refusedBy(0, size(1))},
			reentrant: 1, fast: 1,
		},
		{
			name: "ds upgrade refused by a compatible second holder", ds: true,
			steps: []step{size(0), size(1), refusedBy(1, clear(0)), refusedBy(0, clear(1)),
				size(0), size(2)},
			reentrant: 1, fast: 1,
		},
	}
	schemes := map[bool]*Scheme{}
	for ds, spec := range map[bool]*core.Spec{false: moveSpec(), true: sizeClearSpec()} {
		scheme, err := Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		schemes[ds] = scheme.Reduce()
	}
	for _, sc := range scenarios {
		m := NewManager(schemes[sc.ds], nil)
		txs := []*engine.Tx{engine.NewTx(), engine.NewTx(), engine.NewTx()}
		for i, st := range sc.steps {
			var args core.Vec
			for _, k := range st.args {
				args.Append(core.VInt(k))
			}
			err := pre(m, txs[st.tx], st.method, args)
			if err != nil && !engine.IsConflict(err) {
				t.Fatalf("%s step %d: %v", sc.name, i, err)
			}
			if got := err != nil; got != st.conflict {
				t.Fatalf("%s step %d (tx %d %s%v): conflict=%v, want %v",
					sc.name, i, st.tx, st.method, st.args, got, st.conflict)
			}
			var ce *engine.ConflictError
			if st.by != 0 && (!errors.As(err, &ce) || ce.Holder != txs[st.by-1].ID()) {
				t.Errorf("%s step %d: %v names holder %+v, want tx %d", sc.name, i, err, ce, txs[st.by-1].ID())
			}
		}
		// The transactions are live, so their grants are still
		// pending in their tallies.
		var got uint64
		for _, tx := range txs {
			got += uint64(tx.Tally(m.Telemetry()).ReentrantHits)
		}
		if got != sc.reentrant {
			t.Errorf("%s: %d acquisitions resolved against the owner's hold, want %d", sc.name, got, sc.reentrant)
		}
		if got := m.FastHolds(); got != sc.fast {
			t.Errorf("%s: FastHolds = %d, want %d", sc.name, got, sc.fast)
		}
		if got := m.HeldLocks(); got != sc.held {
			t.Errorf("%s: HeldLocks = %d, want %d", sc.name, got, sc.held)
		}
		for _, i := range sc.abort {
			txs[i].Abort()
			// The datum is free again, and free for the fast path.
			probe := engine.NewTx()
			if err := pre(m, probe, "move", core.Args2(core.VInt(1), core.VInt(1))); err != nil {
				t.Errorf("%s: datum still guarded after its holder aborted: %v", sc.name, err)
			}
			probe.Commit()
			txs[i] = engine.NewTx()
		}
		for _, tx := range txs {
			tx.Commit()
		}
		requireDrained(t, sc.name, m)
	}
}

// TestUpgradeRaceAtMostOneWriter races two transactions for the write
// lock of one datum, from the two starting points the in-place upgrade
// has to get right: both hold the read lock already (one on the fast
// path, one in the table) and upgrade at once, or the fast holder
// upgrades while a foreign reader arrives. In neither may both be
// granted. Run with -race.
func TestUpgradeRaceAtMostOneWriter(t *testing.T) {
	scheme, err := Synthesize(moveSpec())
	if err != nil {
		t.Fatal(err)
	}
	scheme = scheme.Reduce()
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for _, procs := range []int{2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		m := NewManager(scheme, nil)
		get, move := m.Method("get"), m.Method("move")
		for round := 0; round < rounds; round++ {
			k := core.VInt(int64(round % 7))
			bothRead := round%2 == 0
			tx1, tx2 := engine.NewTx(), engine.NewTx()
			if err := m.Acquire(tx1, get, k); err != nil {
				t.Fatal(err)
			}
			if bothRead {
				if err := m.Acquire(tx2, get, k); err != nil {
					t.Fatal(err)
				}
			}
			var err1, err2 error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				err1 = m.Acquire(tx1, move, k, k)
			}()
			go func() {
				defer wg.Done()
				if bothRead {
					err2 = m.Acquire(tx2, move, k, k)
				} else {
					err2 = m.Acquire(tx2, get, k)
				}
			}()
			wg.Wait()
			for _, err := range []error{err1, err2} {
				if err != nil && !engine.IsConflict(err) {
					t.Fatal(err)
				}
			}
			if err1 == nil && err2 == nil {
				t.Fatalf("GOMAXPROCS %d round %d (both readers first: %v): writer and its rival were both granted", procs, round, bothRead)
			}
			if bothRead && (err1 == nil || err2 == nil) {
				t.Fatalf("GOMAXPROCS %d round %d: an upgrade was granted over the other transaction's read lock", procs, round)
			}
			tx1.Commit()
			tx2.Abort()
		}
		runtime.GOMAXPROCS(prev)
		requireDrained(t, "upgrade race", m)
	}
}

// TestHoldLookupBounded takes 256 locks in one transaction and checks
// what keeps the owner's hold lookup from going quadratic in them: it
// reads the one cell the datum maps to, however many locks the
// transaction holds. Every re-acquisition of a fast hold must then
// resolve against it. (The DetectorAbslockHeld256 bench row times the
// same lookup.)
func TestHoldLookupBounded(t *testing.T) {
	m := newRWSetManager(t)
	contains := m.Method("contains")
	tx := engine.NewTx()
	const n = 256
	for k := int64(0); k < n; k++ {
		if err := m.Acquire(tx, contains, core.VInt(k)); err != nil {
			t.Fatal(err)
		}
	}
	// A key whose cell an earlier key already occupies is held in a
	// stripe instead; at sixteen cells per key that is a handful of 256.
	fast := m.FastHolds()
	if fast < n*9/10 {
		t.Errorf("only %d of %d locks are fast holds", fast, n)
	}
	before := tx.Tally(m.Telemetry()).ReentrantHits
	for k := int64(0); k < n; k++ {
		if err := m.Acquire(tx, contains, core.VInt(k)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tx.Tally(m.Telemetry()).ReentrantHits - before; got != fast {
		t.Errorf("%d re-acquisitions resolved against the owner's %d fast holds", got, fast)
	}
	tx.Commit()
	requireDrained(t, "256 locks", m)
}

// TestTalliedCountersExact: grants count into their transaction's tally
// and reach the detector when it ends. After several goroutines have run
// many committed and aborted transactions on one manager, the invocation
// and per-mode acquisition counters equal exactly what the goroutines
// did, and the route counters add up to the acquisitions. Readers share
// keys, so grants may take the stripe path as well as fast cells and
// covered re-acquisitions; writers keep to keys of their own, so nothing
// is refused. Run with -race.
func TestTalliedCountersExact(t *testing.T) {
	m := newRWSetManager(t)
	add, contains := m.Method("add"), m.Method("contains")
	const workers = 4
	iters := 400
	if testing.Short() {
		iters = 100
	}
	type call struct {
		h *Method
		k int64
	}
	var wg sync.WaitGroup
	counted := make([]map[int]uint64, workers) // per worker: mode → grants
	invocations := make([]uint64, workers)
	for w := range workers {
		counted[w] = map[int]uint64{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range iters {
				own := int64(w+1)<<32 | int64(i)
				shared := int64(i % 4)
				tx := engine.NewTx()
				for _, c := range []call{{contains, shared}, {add, own}, {contains, own}, {contains, shared}} {
					if err := m.Acquire(tx, c.h, core.VInt(c.k)); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					invocations[w]++
					for _, a := range c.h.pre {
						counted[w][a.Mode]++
					}
				}
				if i%3 == 0 {
					tx.Abort()
				} else {
					tx.Commit()
				}
			}
		}()
	}
	wg.Wait()
	requireDrained(t, "tallied counters", m)

	var wantInv, wantAcq uint64
	want := map[string]uint64{}
	for w := range workers {
		wantInv += invocations[w]
		for mode, n := range counted[w] {
			want[m.Scheme().Modes[mode].String()] += n
			wantAcq += n
		}
	}
	snap := m.Telemetry().Snapshot()
	if snap.Invocations != wantInv {
		t.Errorf("invocations = %d, want %d", snap.Invocations, wantInv)
	}
	var acq uint64
	for _, row := range snap.Modes {
		if row.Acquired != want[row.Mode] || row.Waits != 0 {
			t.Errorf("mode %s: acquired %d, waits %d; want %d and 0", row.Mode, row.Acquired, row.Waits, want[row.Mode])
		}
		acq += row.Acquired
	}
	if acq != wantAcq {
		t.Errorf("%d acquisitions over the mode rows, want %d", acq, wantAcq)
	}
	// Each granted acquisition took exactly one route.
	if routes := snap.ReentrantHits + snap.FastAdmits + snap.FilterHits; routes != acq {
		t.Errorf("routes: %d reentrant + %d fast cells + %d on the stripe route, want %d",
			snap.ReentrantHits, snap.FastAdmits, snap.FilterHits, acq)
	}
}
