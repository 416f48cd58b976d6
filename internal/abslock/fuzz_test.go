package abslock

import (
	"fmt"
	"math/rand"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// randSimpleSpec generates a random ADT signature and a random SIMPLE
// specification over it: each pair condition is true, false, or a
// conjunction of 1–3 random slot disequalities.
func randSimpleSpec(r *rand.Rand) *core.Spec {
	nm := 2 + r.Intn(3)
	sig := &core.ADTSig{Name: "fuzz"}
	for i := 0; i < nm; i++ {
		ms := core.MethodSig{Name: fmt.Sprintf("m%d", i), HasRet: r.Intn(2) == 0}
		for p := 0; p < 1+r.Intn(2); p++ {
			ms.Params = append(ms.Params, fmt.Sprintf("p%d", p))
		}
		sig.Methods = append(sig.Methods, ms)
	}
	spec := core.NewSpec(sig)
	slotTerms := func(m core.MethodSig, side core.Side) []core.Term {
		var out []core.Term
		for i := range m.Params {
			out = append(out, core.ArgTerm{Side: side, Index: i})
		}
		if m.HasRet {
			out = append(out, core.RetTerm{Side: side})
		}
		return out
	}
	for i, m1 := range sig.Methods {
		for _, m2 := range sig.Methods[i:] {
			switch r.Intn(3) {
			case 0:
				spec.Set(m1.Name, m2.Name, core.True())
			case 1:
				spec.Set(m1.Name, m2.Name, core.False())
			default:
				s1 := slotTerms(m1, core.First)
				s2 := slotTerms(m2, core.Second)
				var conj []core.Cond
				for k := 0; k < 1+r.Intn(3); k++ {
					conj = append(conj, core.Ne(s1[r.Intn(len(s1))], s2[r.Intn(len(s2))]))
				}
				spec.Set(m1.Name, m2.Name, core.And(conj...))
			}
		}
	}
	return spec
}

// randInvocation draws a random invocation of a random method with small
// integer arguments/returns (collision-heavy to stress incompatibility).
func randInvocation(r *rand.Rand, sig *core.ADTSig) core.Invocation {
	m := sig.Methods[r.Intn(len(sig.Methods))]
	args := make([]core.Value, len(m.Params))
	for i := range args {
		args[i] = core.VInt(int64(r.Intn(3)))
	}
	var ret core.Value
	if m.HasRet {
		ret = core.VInt(int64(r.Intn(3)))
	}
	return core.NewInvocation(m.Name, args, ret)
}

// TestTheorem1Fuzz is the randomized counterpart of the hand-written
// Theorem 1 tests: for hundreds of random SIMPLE specifications, the
// synthesized scheme (full and reduced) must allow a pair of invocations
// exactly when the specification's condition evaluates true.
func TestTheorem1Fuzz(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 300; trial++ {
		spec := randSimpleSpec(r)
		full, err := Synthesize(spec)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, spec)
		}
		for _, scheme := range []*Scheme{full, full.Reduce()} {
			for pair := 0; pair < 30; pair++ {
				inv1 := randInvocation(r, spec.Sig)
				inv2 := randInvocation(r, spec.Sig)
				// Locks are direction-blind: the scheme implements the
				// symmetrized meet of the two directed conditions (see
				// Synthesize), so the oracle checks both orientations.
				fwd, err := core.Eval(spec.Cond(inv1.Method, inv2.Method),
					&core.PairEnv{Inv1: inv1, Inv2: inv2})
				if err != nil {
					t.Fatal(err)
				}
				rev, err := core.Eval(spec.Cond(inv2.Method, inv1.Method),
					&core.PairEnv{Inv1: inv2, Inv2: inv1})
				if err != nil {
					t.Fatal(err)
				}
				want := fwd && rev
				got := schemeAllows(t, scheme, nil, inv1, inv2)
				if got != want {
					t.Fatalf("trial %d: allows(%v, %v) = %v, spec says %v\n%s",
						trial, inv1, inv2, got, want, spec)
				}
			}
		}
	}
}

// TestReduceNeverChangesSemantics: for random SIMPLE specs, the reduced
// scheme must agree with the full scheme on every invocation pair.
func TestReduceNeverChangesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(4096))
	for trial := 0; trial < 200; trial++ {
		spec := randSimpleSpec(r)
		full, err := Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		red := full.Reduce()
		if len(red.Modes) > len(full.Modes) {
			t.Fatal("reduction grew the scheme")
		}
		for pair := 0; pair < 20; pair++ {
			inv1 := randInvocation(r, spec.Sig)
			inv2 := randInvocation(r, spec.Sig)
			if schemeAllows(t, full, nil, inv1, inv2) != schemeAllows(t, red, nil, inv1, inv2) {
				t.Fatalf("trial %d: reduction changed the decision for (%v, %v)", trial, inv1, inv2)
			}
		}
	}
}

// lockModel is the executable definition of §3.2's lock discipline that
// the managers are checked against: one holder-mode table per datum and
// one for the ds-lock, acquisitions taken in scheme order and compared
// with every other transaction's held modes. No stripes, no fast path,
// no owner-side shortcuts, no hashes: a datum is the value a mode guards
// up to ValueEq, named by its canonical key.
type lockModel struct {
	scheme *Scheme
	ds     map[int]uint64           // tx → held ds modes
	data   map[datum]map[int]uint64 // datum → tx → held modes
}

// datum is a key-function name ("" for identity) and core.MapKey of the
// guarded value.
type datum struct {
	key string
	v   core.Value
}

func newLockModel(s *Scheme) *lockModel {
	return &lockModel{scheme: s, ds: map[int]uint64{}, data: map[datum]map[int]uint64{}}
}

// invoke runs inv's pre and post acquisitions for tx and reports whether
// all were granted. A refused acquisition leaves the earlier ones held.
func (lm *lockModel) invoke(t *testing.T, tx int, inv core.Invocation) bool {
	for _, post := range []bool{false, true} {
		for _, a := range lm.scheme.Acquire[inv.Method] {
			if (a.After || a.Target == TargetRet) != post {
				continue
			}
			mode := a.Mode
			if a.Guard != nil {
				weak, err := core.Eval(a.Guard, core.OwnEnv(inv))
				if err != nil {
					t.Fatal(err)
				}
				if weak {
					mode = a.WeakMode
				}
			}
			holders := lm.ds
			if a.Target != TargetDS {
				v := inv.Ret
				if a.Target == TargetArg {
					v = inv.Args.At(a.Arg)
				}
				k, ok := core.MapKey(v)
				if !ok {
					t.Fatalf("the model cannot name the unkeyable %v", v)
				}
				d := datum{a.Key, k}
				if lm.data[d] == nil {
					lm.data[d] = map[int]uint64{}
				}
				holders = lm.data[d]
			}
			for other, held := range holders {
				if other == tx {
					continue
				}
				for h := range lm.scheme.Modes {
					if held>>uint(h)&1 != 0 && lm.scheme.Incompat[mode][h] {
						return false
					}
				}
			}
			holders[tx] |= 1 << uint(mode)
		}
	}
	return true
}

func (lm *lockModel) end(tx int) {
	delete(lm.ds, tx)
	for datum, holders := range lm.data {
		delete(holders, tx)
		if len(holders) == 0 {
			delete(lm.data, datum)
		}
	}
}

// heldData counts the data locks with at least one holder.
func (lm *lockModel) heldData() int {
	n := 0
	for _, holders := range lm.data {
		if len(holders) > 0 {
			n++
		}
	}
	return n
}

// requireDrained fails unless m holds nothing at all: no stripe locks,
// the ds-lock's included, and every cell — the ds-lock's is one — free
// with its stripe count back at zero.
func requireDrained(t *testing.T, what string, m *Manager) {
	t.Helper()
	if n := m.HeldLocks(); n != 0 {
		t.Fatalf("%s: HeldLocks = %d after every transaction ended", what, n)
	}
	if l := m.stripeFor(dsHash).data[dsHash]; l != nil {
		t.Fatalf("%s: ds-lock has %d stripe holders after every transaction ended", what, len(l.holders))
	}
	for i := range m.fast.cells {
		c := &m.fast.cells[i]
		if o, n := c.owner.Load(), c.stripe.Load(); o != 0 || n != 0 {
			t.Fatalf("%s: cell %d has owner %d and stripe count %d after every transaction ended", what, i, o, n)
		}
	}
}

// checkAgainstModel drives one random schedule of interleaved
// transactions through the striped and single-stripe managers and the
// lock model, requiring the same verdict from all three at every
// step, the model's count of held data locks throughout, and a fully
// drained table at the end. Half of all invocations reuse argument
// values the transaction already locked, under a freshly drawn method,
// so schedules are dense in same-mode and covered re-acquisitions,
// upgrades (alone and against foreign holders) and plans mixing held
// with new datums; a refused invocation aborts its transaction only
// half the time, so partial acquisitions and reverted upgrades stay
// behind and must match too. A quarter of the fresh argument and return
// values are respelled as the equal float, and another quarter replaced
// by key 0's cell neighbour, which parks on the cell and sends key 0's
// acquirers — under either spelling — to the stripes.
func checkAgainstModel(t *testing.T, seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	spec := randSimpleSpec(r)
	scheme, err := Synthesize(spec)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	scheme = scheme.Reduce()
	names := []string{"striped", "single-stripe"}
	mgrs := []*Manager{
		NewManager(scheme, nil),
		newManagerWithStripes(scheme, nil, 1),
	}
	model := newLockModel(scheme)
	ft := mgrs[0].fast
	neighbour := cellNeighbour(ft, ft.cellFor(core.VInt(0).Hash()), 3)
	respell := func(v core.Value) core.Value {
		switch i, isInt := v.AsInt(); {
		case !isInt:
		case r.Intn(4) == 0:
			return core.VFloat(float64(i))
		case r.Intn(3) == 0:
			return core.VInt(neighbour)
		}
		return v
	}

	const nTx = 4
	var txs [nTx][]*engine.Tx
	var used [nTx][]core.Value
	begin := func(i int) {
		txs[i] = txs[i][:0]
		for range mgrs {
			txs[i] = append(txs[i], engine.NewTx())
		}
		used[i] = used[i][:0]
	}
	end := func(i int, commit bool) {
		for _, tx := range txs[i] {
			if commit {
				tx.Commit()
			} else {
				tx.Abort()
			}
		}
		model.end(i)
		begin(i)
	}
	for i := range txs {
		begin(i)
	}

	for step := 0; step < steps; step++ {
		i := r.Intn(nTx)
		if r.Intn(12) == 0 {
			end(i, r.Intn(2) == 0)
			continue
		}
		inv := randInvocation(r, spec.Sig)
		inv.Ret = respell(inv.Ret)
		for k := 0; k < inv.Args.Len(); k++ {
			if len(used[i]) > 0 && r.Intn(2) == 0 {
				inv.Args.Set(k, used[i][r.Intn(len(used[i]))])
			} else {
				inv.Args.Set(k, respell(inv.Args.At(k)))
			}
			used[i] = append(used[i], inv.Args.At(k))
		}
		want := model.invoke(t, i, inv)
		for k, m := range mgrs {
			_, err := m.Invoke(txs[i][k], inv.Method, inv.Args, func() core.Value { return inv.Ret })
			if err != nil && !engine.IsConflict(err) {
				t.Fatalf("seed %d step %d: %s: %v", seed, step, names[k], err)
			}
			if got := err == nil; got != want {
				t.Fatalf("seed %d step %d: %s granted=%v, model granted=%v for tx %d %s%v ret %v\n%s",
					seed, step, names[k], got, want, i, inv.Method, inv.Args.Slice(), inv.Ret, scheme.MatrixString())
			}
		}
		if !want && r.Intn(2) == 0 {
			end(i, false)
		}
		if step%16 == 0 {
			for k, m := range mgrs {
				if got, want := m.HeldLocks(), model.heldData(); got != want {
					t.Fatalf("seed %d step %d: %s HeldLocks = %d, model holds %d data locks", seed, step, names[k], got, want)
				}
			}
		}
	}
	for i := range txs {
		end(i, i%2 == 0)
	}
	for k, m := range mgrs {
		requireDrained(t, names[k], m)
	}
}

func TestManagersAgreeWithLockModel(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(0); seed < seeds; seed++ {
		checkAgainstModel(t, seed, 400)
	}
}

// FuzzManagersAgreeWithLockModel lets the fuzzer pick the schedule.
func FuzzManagersAgreeWithLockModel(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 2011} {
		f.Add(seed, uint16(300))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		checkAgainstModel(t, seed, int(steps%2000))
	})
}
