package gatekeeper

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// pairSpec is a two-key specification: link(x, y) commutes with another
// link only when BOTH endpoints differ, so two links conflict whenever
// they share either endpoint. Its two publication keys can hash to
// different shards, which makes it the canonical rendezvous workload.
func pairSpec() *core.Spec {
	sig := &core.ADTSig{Name: "graph", Methods: []core.MethodSig{
		{Name: "link", Params: []string{"x", "y"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	s.Set("link", "link", core.And(
		core.Ne(core.Arg1(0), core.Arg2(0)),
		core.Ne(core.Arg1(1), core.Arg2(1))))
	return s
}

func TestShardRouteKeyOf(t *testing.T) {
	s, err := NewSharded(cellSpec(), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", s.Shards())
	}
	// Same key must route to the same shard regardless of method, and
	// the mapping must be deterministic.
	for k := int64(0); k < 64; k++ {
		args := core.Args1(core.VInt(k))
		su, ok := s.KeyOf("upd", args)
		if !ok {
			t.Fatalf("KeyOf(upd, %d) unroutable", k)
		}
		so, ok := s.KeyOf("obs", args)
		if !ok {
			t.Fatalf("KeyOf(obs, %d) unroutable", k)
		}
		if su != so {
			t.Fatalf("key %d routes upd->%d obs->%d", k, su, so)
		}
		if again, _ := s.KeyOf("upd", args); again != su {
			t.Fatalf("key %d not deterministic: %d then %d", k, su, again)
		}
		if su < 0 || su >= s.Shards() {
			t.Fatalf("key %d out of range shard %d", k, su)
		}
	}
	if _, ok := s.KeyOf("nope", core.Args1(core.VInt(1))); ok {
		t.Fatal("KeyOf admitted an unknown method")
	}
	if _, ok := s.KeyOf("upd", core.Vec{}); ok {
		t.Fatal("KeyOf admitted an arity-short vector")
	}
}

func TestShardRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32}} {
		s, err := NewSharded(cellSpec(), nil, tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if s.Shards() != tc.want {
			t.Fatalf("shards=%d rounded to %d, want %d", tc.in, s.Shards(), tc.want)
		}
	}
}

// TestShardSingleShardMatchesCascade checks the degenerate router: one
// shard must behave exactly like the plain cascade (every invocation is
// shard-local).
func TestShardSingleShardMatchesCascade(t *testing.T) {
	s, err := NewSharded(cellSpec(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	ok := func() Effect { return Effect{Ret: core.VBool(true)} }
	if _, err := s.Invoke(tx1, "upd", core.Args1(core.VInt(7)), ok); err != nil {
		t.Fatalf("first upd(7): %v", err)
	}
	if _, err := s.Invoke(tx2, "upd", core.Args1(core.VInt(7)), ok); !engine.IsConflict(err) {
		t.Fatalf("second upd(7) err = %v, want conflict", err)
	}
	if _, err := s.Invoke(tx2, "upd", core.Args1(core.VInt(8)), ok); err != nil {
		t.Fatalf("upd(8): %v", err)
	}
	tx1.Commit()
	tx2.Commit()
	if n := s.ActiveInvocations(); n != 0 {
		t.Fatalf("window leaked %d invocations", n)
	}
	if s.Telemetry().Snapshot().ShardLocal == 0 {
		t.Fatal("no shard-local admissions counted")
	}
}

// TestShardRendezvousConflict drives two-key invocations whose keys
// deliberately straddle shards and checks that conflicts are still
// caught (shared endpoint) and admissions still succeed (disjoint
// endpoints), with the whole window draining afterwards.
func TestShardRendezvousConflict(t *testing.T) {
	s, err := NewSharded(pairSpec(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	ok := func() Effect { return Effect{Ret: core.VBool(true)} }
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if _, err := s.Invoke(tx1, "link", core.Args2(core.VInt(1), core.VInt(2)), ok); err != nil {
		t.Fatalf("link(1,2): %v", err)
	}
	// Shares endpoint 2 — must conflict no matter which shards 1, 2, 3
	// hash to.
	if _, err := s.Invoke(tx2, "link", core.Args2(core.VInt(3), core.VInt(2)), ok); !engine.IsConflict(err) {
		t.Fatalf("link(3,2) err = %v, want conflict", err)
	}
	// Shares endpoint 1 in the other position — the spec conjunction
	// makes it conflict too.
	if _, err := s.Invoke(tx2, "link", core.Args2(core.VInt(1), core.VInt(4)), ok); !engine.IsConflict(err) {
		t.Fatalf("link(1,4) err = %v, want conflict", err)
	}
	// Fully disjoint endpoints commute.
	if _, err := s.Invoke(tx2, "link", core.Args2(core.VInt(5), core.VInt(6)), ok); err != nil {
		t.Fatalf("link(5,6): %v", err)
	}
	tx1.Abort()
	tx2.Abort()
	if n := s.ActiveInvocations(); n != 0 {
		t.Fatalf("window leaked %d invocations after abort", n)
	}
	if s.Telemetry().Snapshot().ShardCross == 0 {
		t.Fatal("no crossing admissions counted for a two-key spec")
	}
}

// TestShardRendezvousUndoOnce checks exactly-once effect undo through
// the ghost-publication path: when a multi-shard admission is refused,
// the effect's Undo must run exactly once even though the invocation
// was (partially) published into several shards.
func TestShardRendezvousUndoOnce(t *testing.T) {
	s, err := NewSharded(pairSpec(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	tx1 := engine.NewTx()
	var undos atomic.Int32
	eff := func() Effect {
		return Effect{Ret: core.VBool(true), Undo: func() { undos.Add(1) }}
	}
	if _, err := s.Invoke(tx1, "link", core.Args2(core.VInt(1), core.VInt(2)), eff); err != nil {
		t.Fatalf("link(1,2): %v", err)
	}
	tx2 := engine.NewTx()
	// Shares the y endpoint (the spec is positional): conflict.
	if _, err := s.Invoke(tx2, "link", core.Args2(core.VInt(9), core.VInt(2)), eff); !engine.IsConflict(err) {
		t.Fatalf("want conflict, got %v", err)
	}
	if n := undos.Load(); n != 1 {
		t.Fatalf("refused admission ran Undo %d times, want 1", n)
	}
	tx1.Abort() // undoes link(1,2): one more
	tx2.Abort()
	if n := undos.Load(); n != 2 {
		t.Fatalf("after aborts Undo ran %d times, want 2", n)
	}
	if n := s.ActiveInvocations(); n != 0 {
		t.Fatalf("window leaked %d invocations", n)
	}
}

// FuzzShardedAgreesWithSerial feeds one randomized invocation stream —
// single-key ops that usually stay shard-local and two-key ops that
// rendezvous across shards — through a sharded cascade and a plain
// serial cascade built from the same spec, and requires identical
// verdicts and return values on every operation.
func FuzzShardedAgreesWithSerial(f *testing.F) {
	f.Add([]byte{2, 1, 4, 0, 1, 10, 20, 2, 11, 30, 0, 12, 7, 7})
	f.Add([]byte{0, 3, 2, 1, 0, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5})
	f.Add([]byte{5, 0, 8, 3, 9, 9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		sig := &core.ADTSig{Name: "fuzzsharded", Methods: []core.MethodSig{
			{Name: "a", Params: []string{"x"}, HasRet: true},
			{Name: "link", Params: []string{"x", "y"}, HasRet: true},
		}}
		spec := core.NewSpec(sig)
		spec.Set("a", "a", fuzzCond(data[0]))
		spec.Set("a", "link", core.Ne(core.Arg1(0), core.Arg2(0)))
		spec.Set("link", "link", core.And(
			core.Ne(core.Arg1(0), core.Arg2(0)),
			core.Ne(core.Arg1(1), core.Arg2(1))))

		shards := 1 << (data[1] % 4) // 1, 2, 4, 8
		cfg := CascadeConfig{}
		if data[2]%4 == 0 {
			cfg.SlotCapacity = 2 // force the overflow path regularly
		}
		sh, err := NewShardedConfig(spec, nil, cfg, shards)
		if err != nil {
			t.Fatalf("NewShardedConfig: %v", err)
		}
		se, err := NewCascadeConfig(spec, nil, cfg)
		if err != nil {
			t.Fatalf("NewCascadeConfig: %v", err)
		}

		ok := func() Effect { return Effect{Ret: core.VBool(true)} }

		const nTx = 3
		var shTx, seTx [nTx]*engine.Tx
		for i := range shTx {
			shTx[i], seTx[i] = engine.NewTx(), engine.NewTx()
		}
		defer func() {
			for i := range shTx {
				shTx[i].Abort()
				seTx[i].Abort()
			}
			if n := sh.ActiveInvocations(); n != 0 {
				t.Errorf("sharded window leaked %d invocations", n)
			}
			if n := se.ActiveInvocations(); n != 0 {
				t.Errorf("serial window leaked %d invocations", n)
			}
		}()

		ops := data[3:]
		for len(ops) >= 2 {
			sel, argB := ops[0], ops[1]
			ops = ops[2:]
			ti := int(sel) % nTx
			switch act := (sel / nTx) % 8; act {
			case 6:
				shTx[ti].Commit()
				seTx[ti].Commit()
				shTx[ti], seTx[ti] = engine.NewTx(), engine.NewTx()
				continue
			case 7:
				shTx[ti].Abort()
				seTx[ti].Abort()
				shTx[ti], seTx[ti] = engine.NewTx(), engine.NewTx()
				continue
			}
			var method string
			var args core.Vec
			x := int64(argB % 8) // small key space: force collisions
			if sel&1 == 0 {
				method, args = "a", core.Args1(core.VInt(x))
			} else {
				y := int64((argB >> 3) % 8)
				method, args = "link", core.Args2(core.VInt(x), core.VInt(y))
			}
			hr, herr := sh.Invoke(shTx[ti], method, args, ok)
			sr, serr := se.Invoke(seTx[ti], method, args, ok)
			if (herr == nil) != (serr == nil) {
				t.Fatalf("%s%v tx%d: sharded err=%v serial err=%v", method, args, ti, herr, serr)
			}
			if herr != nil {
				if !engine.IsConflict(herr) || !engine.IsConflict(serr) {
					t.Fatalf("%s%v: non-conflict errors: sharded=%v serial=%v", method, args, herr, serr)
				}
				continue
			}
			if hr != sr {
				t.Fatalf("%s%v tx%d: sharded ret=%v serial ret=%v", method, args, ti, hr, sr)
			}
		}
	})
}

// shardedExclusionStress is cascadeExclusionStress through the router:
// many goroutines hammer single-key ops, with the same per-key
// occupancy oracle checking writer/reader exclusion end to end.
func shardedExclusionStress(t *testing.T, shards, opsPerWorker int) {
	t.Helper()
	c, err := NewSharded(cellSpec(), nil, shards)
	if err != nil {
		t.Fatal(err)
	}

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
			for op := 0; op < opsPerWorker; op++ {
				tx := engine.NewTx()
				k := int64(r.Intn(nKeys))
				write := r.Intn(3) == 0
				method := "obs"
				if write {
					method = "upd"
				}
				_, err := c.Invoke(tx, method, core.Args1(core.VInt(k)), func() Effect {
					return Effect{Ret: core.VBool(true)}
				})
				if err == nil {
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
					if r.Intn(4) == 0 {
						tx.Abort()
					} else {
						tx.Commit()
					}
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
		t.Fatalf("%d exclusion violations", n)
	}
	if n := c.ActiveInvocations(); n != 0 {
		t.Fatalf("sharded window leaked %d invocations", n)
	}
	var total int32
	for i := range occupancy {
		total += occupancy[i].Load()
	}
	if total != 0 {
		t.Fatalf("occupancy counters did not drain: %d", total)
	}
}

// TestShardStressRace sweeps shard counts against GOMAXPROCS under the
// exclusion oracle; run with -race for the full interleaving check.
func TestShardStressRace(t *testing.T) {
	ops := 250
	if testing.Short() {
		ops = 60
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{2, 8} {
		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				shardedExclusionStress(t, shards, ops)
			})
		}
	}
}

// TestShardRendezvousStressRace hammers the cross-shard path: two-key
// links whose conflicting pairs may meet in either endpoint's shard.
// The spec is positional — links conflict iff they share the x value or
// the y value — so the oracle keeps one occupancy array per position
// and flags any concurrent pair colliding in either.
func TestShardRendezvousStressRace(t *testing.T) {
	ops := 200
	if testing.Short() {
		ops = 50
	}
	c, err := NewSharded(pairSpec(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 12
	var occX, occY [nKeys]atomic.Int32
	var violations atomic.Int32
	workers := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) * 7))
			for op := 0; op < ops; op++ {
				tx := engine.NewTx()
				x := int64(r.Intn(nKeys))
				y := int64(r.Intn(nKeys))
				_, err := c.Invoke(tx, "link", core.Args2(core.VInt(x), core.VInt(y)), func() Effect {
					return Effect{Ret: core.VBool(true)}
				})
				if err == nil {
					if occX[x].Add(1) != 1 {
						violations.Add(1)
					}
					if occY[y].Add(1) != 1 {
						violations.Add(1)
					}
					tx.OnReleaser(releaseFunc(func() {
						occX[x].Add(-1)
						occY[y].Add(-1)
					}))
					if r.Intn(4) == 0 {
						tx.Abort()
					} else {
						tx.Commit()
					}
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
		t.Fatalf("%d endpoint exclusion violations", n)
	}
	if n := c.ActiveInvocations(); n != 0 {
		t.Fatalf("window leaked %d invocations", n)
	}
	var total int32
	for i := range occX {
		total += occX[i].Load() + occY[i].Load()
	}
	if total != 0 {
		t.Fatalf("occupancy counters did not drain: %d", total)
	}
	if c.Telemetry().Snapshot().ShardCross == 0 {
		t.Fatal("stress never exercised the rendezvous path")
	}
}

// TestShardInvokeBatch checks routed batch admission: a pre-sorted
// same-shard batch admits as one run, and a batch with an interior
// conflict admits exactly the serial prefix.
func TestShardInvokeBatch(t *testing.T) {
	s, err := NewSharded(cellSpec(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(k int64) BatchOp {
		return BatchOp{Tx: engine.NewTx(), Method: "upd", Args: core.Args1(core.VInt(k))}
	}
	// Distinct keys grouped by shard: sort a small key range by KeyOf.
	var keys []int64
	for k := int64(0); len(keys) < 8; k++ {
		keys = append(keys, k)
	}
	bySh := map[int][]int64{}
	for _, k := range keys {
		sh, ok := s.KeyOf("upd", core.Args1(core.VInt(k)))
		if !ok {
			t.Fatalf("key %d unroutable", k)
		}
		bySh[sh] = append(bySh[sh], k)
	}
	var ops []BatchOp
	for _, ks := range bySh {
		for _, k := range ks {
			ops = append(ops, mk(k))
		}
	}
	execd := 0
	p := s.InvokeBatch(ops, func(run []BatchOp) {
		for i := range run {
			run[i].Ret = core.VBool(true)
		}
		execd += len(run)
	})
	if p != len(ops) {
		t.Fatalf("batch admitted %d of %d distinct-key ops", p, len(ops))
	}
	if execd != len(ops) {
		t.Fatalf("exec saw %d ops, want %d", execd, len(ops))
	}
	for i := range ops {
		ops[i].Tx.Commit()
	}
	if n := s.ActiveInvocations(); n != 0 {
		t.Fatalf("window leaked %d invocations", n)
	}

	// Interior duplicate: admission stops at the serial verdict.
	dup := []BatchOp{mk(100), mk(101), mk(100), mk(102)}
	p = s.InvokeBatch(dup, func(run []BatchOp) {
		for i := range run {
			run[i].Ret = core.VBool(true)
		}
	})
	if p > 2 {
		t.Fatalf("batch admitted %d ops past an interior conflict", p)
	}
	for i := 0; i < p; i++ {
		dup[i].Tx.Commit()
	}
	for i := p; i < len(dup); i++ {
		dup[i].Tx.Abort()
	}
	if n := s.ActiveInvocations(); n != 0 {
		t.Fatalf("window leaked %d invocations after duplicate batch", n)
	}
}
