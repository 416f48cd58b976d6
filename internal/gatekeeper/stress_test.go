package gatekeeper

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// These tests check that the method-indexed, slot-logged forward
// gatekeeper reaches exactly the decisions of the definitional check —
// evaluating the pair condition with core.Eval against every active
// invocation — and that it tolerates real concurrency.

// oracleGK is a reference forward gatekeeper: a mirror set plus a flat
// active-invocation list, with conditions interpreted from the spec on
// every check. No indexing, no logs, no compiled checkers.
type oracleGK struct {
	spec   *core.Spec
	elems  map[int64]bool
	active []struct {
		tx  int
		inv core.Invocation
	}
}

// step computes the oracle's return value and conflict decision for one
// invocation by transaction tx, applying the effect when allowed. arg is
// the value actually passed to the method — possibly a float64 spelling
// of the logical key x, to exercise cross-type value equality.
func (o *oracleGK) step(t *testing.T, tx int, method string, x int64, arg core.Value) (core.Value, bool) {
	t.Helper()
	var ret core.Value
	switch method {
	case "add":
		ret = core.VBool(!o.elems[x])
	case "remove":
		ret = core.VBool(o.elems[x])
	case "contains":
		ret = core.VBool(o.elems[x])
	}
	inv := core.NewInvocation(method, []core.Value{arg}, ret)
	for _, a := range o.active {
		if a.tx == tx {
			continue
		}
		ok, err := core.Eval(o.spec.Cond(a.inv.Method, method), &core.PairEnv{Inv1: a.inv, Inv2: inv})
		if err != nil {
			t.Fatalf("oracle eval: %v", err)
		}
		if !ok {
			return ret, false
		}
	}
	switch method {
	case "add":
		o.elems[x] = true
	case "remove":
		delete(o.elems, x)
	}
	o.active = append(o.active, struct {
		tx  int
		inv core.Invocation
	}{tx, inv})
	return ret, true
}

func (o *oracleGK) commit(tx int) {
	kept := o.active[:0]
	for _, a := range o.active {
		if a.tx != tx {
			kept = append(kept, a)
		}
	}
	o.active = kept
}

// TestForwardIndexedMatchesInterpretedOracle replays deterministic random schedules of set
// operations from several transactions against the indexed gatekeeper
// and the interpreted oracle, requiring identical return values and
// identical allow/conflict decisions at every step.
func TestForwardIndexedMatchesInterpretedOracle(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := newGSet(t)
		o := &oracleGK{spec: preciseSetSpec(), elems: map[int64]bool{}}

		const nTx = 4
		txs := make([]*engine.Tx, nTx)
		for i := range txs {
			txs[i] = engine.NewTx()
		}
		methods := []string{"add", "remove", "contains"}
		for step := 0; step < 500; step++ {
			i := r.Intn(nTx)
			if r.Intn(15) == 0 {
				txs[i].Commit()
				o.commit(i)
				txs[i] = engine.NewTx()
				continue
			}
			method := methods[r.Intn(len(methods))]
			x := int64(r.Intn(8)) // tiny key space: heavy overlap
			// Sometimes spell the key as a float64: ValueEq-equal to the
			// int64 spelling but not ==-equal, so the index must
			// canonicalize both to one map key to keep decisions exact.
			arg := core.VInt(x)
			if r.Intn(3) == 0 {
				arg = core.VFloat(float64(x))
			}
			wantRet, wantOK := o.step(t, i, method, x, arg)
			ret, err := s.invokeV(txs[i], method, x, arg)
			if gotOK := err == nil; gotOK != wantOK {
				t.Fatalf("seed %d step %d: %s(%v) by tx%d: gatekeeper ok=%v oracle ok=%v (err=%v)",
					seed, step, method, arg, i, gotOK, wantOK, err)
			}
			if err != nil {
				if !engine.IsConflict(err) {
					t.Fatalf("seed %d step %d: non-conflict error: %v", seed, step, err)
				}
				continue
			}
			if ret != wantRet.Bool() {
				t.Fatalf("seed %d step %d: %s(%d) returned %v, oracle %v", seed, step, method, x, ret, wantRet)
			}
		}
		for i := range txs {
			txs[i].Commit()
			o.commit(i)
		}
		if n := s.g.ActiveInvocations(); n != 0 {
			t.Fatalf("seed %d: %d invocations still active after commits", seed, n)
		}
		// Final states must agree too.
		for x := int64(0); x < 8; x++ {
			if s.elems[x] != o.elems[x] {
				t.Fatalf("seed %d: state divergence at %d: %v vs %v", seed, x, s.elems[x], o.elems[x])
			}
		}
		// The schedules above must actually have exercised the index.
		if st := s.g.Telemetry().Snapshot(); st.Probes == 0 {
			t.Fatalf("seed %d: index never probed", seed)
		}
	}
}

// TestForwardIndexedConcurrentStress drives the indexed gatekeeper from many
// goroutines under the race detector. Each worker owns a disjoint key
// range, so every invocation must be admitted (the paper's precise set
// spec makes distinct-key operations commute) — a conflict here would be
// spurious, caused only by the indexing or pooling machinery.
func TestForwardIndexedConcurrentStress(t *testing.T) {
	s := newGSet(t)
	var spurious atomic.Int32
	workers := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			base := int64(w) << 32
			methods := []string{"add", "remove", "contains"}
			for op := 0; op < 200; op++ {
				tx := engine.NewTx()
				for j := 0; j < 4; j++ {
					x := base + int64(r.Intn(64))
					if _, err := s.invoke(tx, methods[r.Intn(len(methods))], x); err != nil {
						spurious.Add(1)
					}
				}
				tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	if n := spurious.Load(); n != 0 {
		t.Fatalf("%d spurious conflicts on disjoint keys", n)
	}
	if n := s.g.ActiveInvocations(); n != 0 {
		t.Fatalf("%d invocations still active", n)
	}
}
