package gatekeeper

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// --- union-find fixture (the paper's general-gatekeeper example, §3.3.2) --
//
// A disjoint-set forest with union by *static priority*: each element's
// rank is its index, fixed forever, and loser(a, b) is the lower-priority
// representative. (With classic tie-bumping union-by-rank, figure 5's
// conditions are not valid: a rank tie makes the loser decision depend on
// execution order in a way find can observe — our brute-force checker
// finds the counterexample. Static unique priorities make rep and loser
// pure functions of the partition, which is the reading under which the
// paper's conditions are precise. See DESIGN.md.) The fixture omits path
// compression (the full ADT in internal/adt/unionfind has it); here we
// exercise the generic rollback machinery of the General engine against
// figure 5's conditions, whose rep(s1, c) term — a function of the FIRST
// state over the SECOND invocation's argument — is not ONLINE-CHECKABLE.

func ufSig() *core.ADTSig {
	return &core.ADTSig{Name: "unionfind", Methods: []core.MethodSig{
		{Name: "union", Params: []string{"a", "b"}},
		{Name: "find", Params: []string{"a"}, HasRet: true},
	}}
}

func ufSpec() *core.Spec {
	loser := core.Fn1("loser", core.Arg1(0), core.Arg1(1))
	s := core.NewSpec(ufSig())
	// (1) unions commute when the second union touches neither rep of the
	// first union's loser.
	s.Set("union", "union", core.And(
		core.Ne(core.Fn1("rep", core.Arg2(0)), loser),
		core.Ne(core.Fn1("rep", core.Arg2(1)), loser),
	))
	// (2) union ~ find: the find must not (have) return(ed) the loser.
	s.Set("union", "find", core.Ne(core.Fn1("rep", core.Arg2(0)), loser))
	// (4) finds commute.
	s.Set("find", "find", core.True())
	return s
}

type guf struct {
	g      *General
	parent []int64
}

func newGUF(t *testing.T, n int) *guf {
	t.Helper()
	u := &guf{parent: make([]int64, n)}
	for i := range u.parent {
		u.parent[i] = int64(i)
	}
	g, err := NewGeneral(ufSpec(), func(fn string, args []core.Value) (core.Value, error) {
		switch fn {
		case "rep":
			return core.VInt(u.rep(args[0].Int())), nil
		case "loser":
			return core.VInt(u.loser(args[0].Int(), args[1].Int())), nil
		default:
			return core.Value{}, fmt.Errorf("unknown fn %s", fn)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	u.g = g
	return u
}

func (u *guf) rep(x int64) int64 {
	for u.parent[x] != x {
		x = u.parent[x]
	}
	return x
}

// loser follows the paper's definition with static priorities: the
// lower-priority representative loses (priorities are unique, so there
// are no ties).
func (u *guf) loser(a, b int64) int64 {
	ra, rb := u.rep(a), u.rep(b)
	if ra < rb {
		return ra
	}
	return rb
}

func (u *guf) union(tx *engine.Tx, a, b int64) error {
	_, err := u.g.Invoke(tx, "union", core.MakeVec(core.V(a), core.V(b)), func() GEffect {
		ra, rb := u.rep(a), u.rep(b)
		if ra == rb {
			return GEffect{}
		}
		l := u.loser(a, b)
		w := ra + rb - l
		u.parent[l] = w
		return GEffect{
			Undo: func() { u.parent[l] = l },
			Redo: func() { u.parent[l] = w },
		}
	})
	return err
}

func (u *guf) find(tx *engine.Tx, a int64) (int64, error) {
	ret, err := u.g.Invoke(tx, "find", core.MakeVec(core.V(a)), func() GEffect {
		return GEffect{Ret: core.VInt(u.rep(a))}
	})
	if err != nil {
		return 0, err
	}
	return ret.Int(), nil
}

// ufModel adapts the fixture to core.Model for brute-force validation of
// the figure-5 conditions (in both orientations, catching swap-invalid
// specs).
type ufModel struct {
	parent []int64
}

func newUFModel(n int) *ufModel {
	m := &ufModel{parent: make([]int64, n)}
	for i := range m.parent {
		m.parent[i] = int64(i)
	}
	return m
}

func (m *ufModel) Clone() core.Model {
	return &ufModel{parent: append([]int64(nil), m.parent...)}
}

func (m *ufModel) rep(x int64) int64 {
	for m.parent[x] != x {
		x = m.parent[x]
	}
	return x
}

func (m *ufModel) Apply(method string, args []core.Value) (core.Value, error) {
	switch method {
	case "find":
		return core.VInt(m.rep(args[0].Int())), nil
	case "union":
		a, b := args[0].Int(), args[1].Int()
		ra, rb := m.rep(a), m.rep(b)
		if ra == rb {
			return core.Value{}, nil
		}
		l, w := ra, rb
		if rb < ra {
			l, w = rb, ra
		}
		m.parent[l] = w
		return core.Value{}, nil
	default:
		return core.Value{}, fmt.Errorf("unknown method %s", method)
	}
}

// StateKey encodes the ABSTRACT state: the partition into disjoint sets.
// Representatives are a pure function of the partition (the max-priority
// member), so they are covered too.
func (m *ufModel) StateKey() string {
	s := ""
	for i := range m.parent {
		s += fmt.Sprintf("%d:%d;", i, m.rep(int64(i)))
	}
	return s
}

func (m *ufModel) StateFn(fn string, args []core.Value) (core.Value, error) {
	switch fn {
	case "rep":
		return core.VInt(m.rep(args[0].Int())), nil
	case "loser":
		a, b := args[0].Int(), args[1].Int()
		ra, rb := m.rep(a), m.rep(b)
		if ra < rb {
			return core.VInt(ra), nil
		}
		return core.VInt(rb), nil
	default:
		return core.Value{}, fmt.Errorf("unknown fn %s", fn)
	}
}

// --------------------------------------------------------------------------

func TestGeneralAcceptsGeneralSpecForwardRejects(t *testing.T) {
	if _, err := NewGeneral(ufSpec(), nil); err != nil {
		t.Fatalf("general gatekeeper must accept the union-find spec: %v", err)
	}
	if _, err := NewForward(ufSpec(), nil); err == nil {
		t.Error("forward gatekeeper should refuse the union-find spec")
	}
}

// TestUFSpecSoundByBruteForce validates figure 5's conditions against the
// executable model per Definition 1, exercising both orientations of
// each pair (this is what certifies that SwapSides-derived conditions are
// valid too).
func TestUFSpecSoundByBruteForce(t *testing.T) {
	spec := ufSpec()
	var states []core.Model
	base := newUFModel(4)
	states = append(states, base.Clone())
	s1 := base.Clone().(*ufModel)
	if _, err := s1.Apply("union", []core.Value{core.V(int64(0)), core.V(int64(1))}); err != nil {
		t.Fatal(err)
	}
	states = append(states, s1.Clone())
	s2 := s1.Clone().(*ufModel)
	if _, err := s2.Apply("union", []core.Value{core.V(int64(2)), core.V(int64(3))}); err != nil {
		t.Fatal(err)
	}
	states = append(states, s2.Clone())
	s3 := s2.Clone().(*ufModel)
	if _, err := s3.Apply("union", []core.Value{core.V(int64(0)), core.V(int64(2))}); err != nil {
		t.Fatal(err)
	}
	states = append(states, s3)

	var calls []core.Call
	for a := int64(0); a < 4; a++ {
		calls = append(calls, core.Call{Method: "find", Args: []core.Value{core.V(a)}})
		for b := int64(0); b < 4; b++ {
			if a != b {
				calls = append(calls, core.Call{Method: "union", Args: []core.Value{core.V(a), core.V(b)}})
			}
		}
	}
	bad, err := core.CheckCondSound(spec, states, calls)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bad {
		t.Errorf("violation: %s", v)
	}
}

func TestGeneralUnionFindScenario(t *testing.T) {
	u := newGUF(t, 6)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()

	// tx1 merges {1,2}: priority 1 < 2, so rep 1 loses.
	if err := u.union(tx1, 1, 2); err != nil {
		t.Fatal(err)
	}
	// tx2's find(3): rep(s1,3)=3 ≠ loser 1 → commutes. The rollback to
	// evaluate rep in s1 must restore the union afterwards.
	if r, err := u.find(tx2, 3); err != nil || r != 3 {
		t.Fatalf("find(3) = %v, %v", r, err)
	}
	if u.rep(1) != 2 {
		t.Errorf("rollback evaluation lost tx1's union: rep(1) = %d", u.rep(1))
	}
	// tx2's find(1): rep(s1,1)=1 == loser → conflict (it would observe
	// the merge).
	if _, err := u.find(tx2, 1); !engine.IsConflict(err) {
		t.Fatalf("find(1) should conflict, got %v", err)
	}
	// tx2's find(2): rep(s1,2)=2 ≠ loser 1 → commutes (2 is the winner;
	// find(2) returns 2 in both orders).
	if r, err := u.find(tx2, 2); err != nil || r != 2 {
		t.Fatalf("find(2) = %v, %v", r, err)
	}

	// tx2's union(4,5) touches neither rep → commutes.
	if err := u.union(tx2, 4, 5); err != nil {
		t.Fatal(err)
	}
	// tx2's union(1,3): rep(s1,1)=1 == tx1's loser → conflict, and the
	// merge must be rolled back.
	if err := u.union(tx2, 1, 3); !engine.IsConflict(err) {
		t.Fatalf("union(1,3) should conflict, got %v", err)
	}
	if u.rep(3) != 3 || u.rep(1) != 2 {
		t.Errorf("conflicting union(1,3) not undone: rep(3)=%d rep(1)=%d", u.rep(3), u.rep(1))
	}
}

func TestGeneralAbortRestoresForest(t *testing.T) {
	u := newGUF(t, 5)
	tx := engine.NewTx()
	if err := u.union(tx, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := u.union(tx, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := u.union(tx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if u.g.JournalLen() != 3 {
		t.Errorf("journal = %d, want 3", u.g.JournalLen())
	}
	tx.Abort()
	for i := int64(0); i < 5; i++ {
		if u.rep(i) != i {
			t.Errorf("abort did not restore element %d: rep=%d", i, u.rep(i))
		}
	}
	if u.g.JournalLen() != 0 || u.g.ActiveInvocations() != 0 {
		t.Errorf("state leaked: journal=%d active=%d", u.g.JournalLen(), u.g.ActiveInvocations())
	}
}

func TestGeneralCommitKeepsEffects(t *testing.T) {
	u := newGUF(t, 4)
	tx := engine.NewTx()
	if err := u.union(tx, 0, 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if u.rep(1) != u.rep(0) {
		t.Error("commit lost the union")
	}
	if u.g.JournalLen() != 0 {
		t.Errorf("journal should drain on commit: %d", u.g.JournalLen())
	}
}

func TestGeneralRollbackDepths(t *testing.T) {
	// Two active unions at different journal depths; a find that must be
	// checked against both, each at its own rollback point.
	u := newGUF(t, 8)
	tx1, tx2, tx3 := engine.NewTx(), engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	defer tx3.Abort()
	if err := u.union(tx1, 0, 1); err != nil { // loser 0
		t.Fatal(err)
	}
	if err := u.union(tx2, 2, 3); err != nil { // loser 2
		t.Fatal(err)
	}
	// find(5): clean of both losers → commutes with both.
	if r, err := u.find(tx3, 5); err != nil || r != 5 {
		t.Fatalf("find(5) = %v, %v", r, err)
	}
	// State intact after the two-depth rollback.
	if u.rep(0) != 1 || u.rep(2) != 3 {
		t.Errorf("state corrupted: rep(0)=%d rep(2)=%d", u.rep(0), u.rep(2))
	}
	// find(2): conflicts with tx2's union (loser 2).
	if _, err := u.find(tx3, 2); !engine.IsConflict(err) {
		t.Fatalf("find(2) should conflict, got %v", err)
	}
	// find(0): conflicts with tx1's union (loser 0).
	if _, err := u.find(tx3, 0); !engine.IsConflict(err) {
		t.Fatalf("find(0) should conflict, got %v", err)
	}
}

// TestGeneralMatchesOracle compares the gatekeeper's allow/deny decision
// with the interpreted condition over true pre-states for every pair of
// invocations from two transactions.
func TestGeneralMatchesOracle(t *testing.T) {
	const n = 4
	var calls []core.Call
	for a := int64(0); a < n; a++ {
		calls = append(calls, core.Call{Method: "find", Args: []core.Value{core.V(a)}})
		for b := int64(0); b < n; b++ {
			if a != b {
				calls = append(calls, core.Call{Method: "union", Args: []core.Value{core.V(a), core.V(b)}})
			}
		}
	}
	spec := ufSpec()
	seeds := [][][2]int64{{}, {{0, 1}}, {{0, 1}, {2, 3}}}
	for _, seed := range seeds {
		for _, c1 := range calls {
			for _, c2 := range calls {
				// Oracle on the model.
				m0 := newUFModel(n)
				for _, uv := range seed {
					if _, err := m0.Apply("union", []core.Value{core.V(uv[0]), core.V(uv[1])}); err != nil {
						t.Fatal(err)
					}
				}
				pre1 := m0.Clone()
				m := m0.Clone()
				r1, err := m.Apply(c1.Method, c1.Args)
				if err != nil {
					t.Fatal(err)
				}
				pre2 := m.Clone()
				r2, err := m.Apply(c2.Method, c2.Args)
				if err != nil {
					t.Fatal(err)
				}
				env := &core.PairEnv{
					Inv1: core.NewInvocation(c1.Method, c1.Args, r1),
					Inv2: core.NewInvocation(c2.Method, c2.Args, r2),
					S1:   pre1.StateFn,
					S2:   pre2.StateFn,
				}
				want, err := core.Eval(spec.Cond(c1.Method, c2.Method), env)
				if err != nil {
					t.Fatal(err)
				}

				// Gatekeeper.
				u := newGUF(t, n)
				setup := engine.NewTx()
				for _, uv := range seed {
					if err := u.union(setup, uv[0], uv[1]); err != nil {
						t.Fatal(err)
					}
				}
				setup.Commit()
				tx1, tx2 := engine.NewTx(), engine.NewTx()
				invoke := func(tx *engine.Tx, c core.Call) error {
					if c.Method == "find" {
						_, err := u.find(tx, c.Args[0].Int())
						return err
					}
					return u.union(tx, c.Args[0].Int(), c.Args[1].Int())
				}
				if err := invoke(tx1, c1); err != nil {
					t.Fatalf("first invocation conflicted: %v", err)
				}
				err = invoke(tx2, c2)
				got := err == nil
				if err != nil && !engine.IsConflict(err) {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %v: %s%v then %s%v: gatekeeper=%v oracle=%v",
						seed, c1.Method, c1.Args, c2.Method, c2.Args, got, want)
				}
				tx2.Abort()
				tx1.Abort()
			}
		}
	}
}

func TestGeneralConcurrentStress(t *testing.T) {
	const n = 64
	u := newGUF(t, n)
	var mu sync.Mutex
	type edge struct{ a, b int64 }
	var committed []edge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				tx := engine.NewTx()
				a, b := int64(r.Intn(n)), int64(r.Intn(n))
				if a == b {
					tx.Abort()
					continue
				}
				if err := u.union(tx, a, b); err != nil {
					tx.Abort()
					continue
				}
				if r.Intn(6) == 0 {
					tx.Abort()
					continue
				}
				mu.Lock()
				committed = append(committed, edge{a, b})
				mu.Unlock()
				tx.Commit()
			}
		}(int64(w))
	}
	wg.Wait()
	if u.g.JournalLen() != 0 || u.g.ActiveInvocations() != 0 {
		t.Fatalf("leaked: journal=%d active=%d", u.g.JournalLen(), u.g.ActiveInvocations())
	}
	// The final partition must equal the one produced by the committed
	// unions (in any order — unions are confluent on the partition).
	ref := newUFModel(n)
	for _, e := range committed {
		if _, err := ref.Apply("union", []core.Value{core.V(e.a), core.V(e.b)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			same := u.rep(i) == u.rep(j)
			refSame := ref.rep(i) == ref.rep(j)
			if same != refSame {
				t.Fatalf("partition mismatch at (%d,%d): got %v want %v", i, j, same, refSame)
			}
		}
	}
}

func TestGeneralPanicsWithoutRedo(t *testing.T) {
	u := newGUF(t, 2)
	tx := engine.NewTx()
	defer tx.Abort()
	defer func() {
		if recover() == nil {
			t.Error("Undo without Redo should panic")
		}
	}()
	_, _ = u.g.Invoke(tx, "union", core.MakeVec(core.V(int64(0)), core.V(int64(1))), func() GEffect {
		return GEffect{Undo: func() {}}
	})
}

func TestGeneralStatsCounters(t *testing.T) {
	u := newGUF(t, 6)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := u.union(tx1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := u.find(tx2, 3); err != nil { // needs a rollback sweep
		t.Fatal(err)
	}
	if _, err := u.find(tx2, 1); !engine.IsConflict(err) {
		t.Fatal("expected conflict")
	}
	st := u.g.Stats()
	if st.Invocations != 3 {
		t.Errorf("Invocations = %d, want 3", st.Invocations)
	}
	if st.Rollbacks < 2 {
		t.Errorf("Rollbacks = %d, want ≥ 2 (one per checked find)", st.Rollbacks)
	}
	if st.Conflicts != 1 {
		t.Errorf("Conflicts = %d, want 1", st.Conflicts)
	}
}

// TestUnknownMethodRejected: a method name outside the signature must be
// refused before exec runs, by every detector. The logged gatekeepers
// used to execute it, check nothing (no plan names it) and log it — a
// misspelt name in an ADT wrapper silently switched conflict detection
// off.
func TestUnknownMethodRejected(t *testing.T) {
	spec := rwSetSpec()
	fwd, err := NewForward(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGeneral(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	cas, err := NewCascade(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	shd, err := NewSharded(spec, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	effect := func() Effect { ran = true; return Effect{Ret: core.VBool(true)} }
	geffect := func() GEffect { ran = true; return GEffect{Ret: core.VBool(true)} }
	for _, tc := range []struct {
		name   string
		invoke func(tx *engine.Tx) error
		active func() int
	}{
		{"forward", func(tx *engine.Tx) error {
			_, err := fwd.Invoke(tx, "typo", core.Args1(core.VInt(1)), effect)
			return err
		}, fwd.ActiveInvocations},
		{"general", func(tx *engine.Tx) error {
			_, err := gen.Invoke(tx, "typo", core.Args1(core.VInt(1)), geffect)
			return err
		}, gen.ActiveInvocations},
		{"cascade", func(tx *engine.Tx) error {
			_, err := cas.Invoke(tx, "typo", core.Args1(core.VInt(1)), effect)
			return err
		}, cas.ActiveInvocations},
		{"sharded", func(tx *engine.Tx) error {
			_, err := shd.Invoke(tx, "typo", core.Args1(core.VInt(1)), effect)
			return err
		}, shd.ActiveInvocations},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ran = false
			for i := 0; i < 2; i++ {
				tx := engine.NewTx()
				defer tx.Abort()
				err := tc.invoke(tx)
				if err == nil || engine.IsConflict(err) {
					t.Errorf("invoking an unknown method: err = %v, want a plain error", err)
				}
			}
			if ran {
				t.Errorf("exec ran for an unknown method")
			}
			if n := tc.active(); n != 0 {
				t.Errorf("%d active invocations after unknown-method calls, want 0", n)
			}
		})
	}
}

// TestGeneralRecordsLatencyAndFlight: the general gatekeeper shares the
// forward gatekeeper's observation sites, so with the stage histograms
// and the flight recorder on, every invocation lands in the precise
// stage with one flight record and every transaction end in the
// commit/release stage.
func TestGeneralRecordsLatencyAndFlight(t *testing.T) {
	g, err := NewGeneral(rwSetSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	telemetry.EnableLatency()
	telemetry.EnableFlight(64)
	defer telemetry.DisableLatency()
	defer telemetry.DisableFlight()
	const nTx, perTx = 3, 4
	for i := 0; i < nTx; i++ {
		tx := engine.NewTx()
		for j := 0; j < perTx; j++ {
			if _, err := g.Invoke(tx, "add", core.Args1(core.VInt(int64(i*perTx+j))), func() GEffect {
				return GEffect{Ret: core.VBool(true)}
			}); err != nil {
				t.Fatal(err)
			}
		}
		tx.Commit()
	}
	counts := map[string]uint64{}
	for _, st := range telemetry.SnapshotLatency().Stages {
		counts[st.Stage] = st.Count
	}
	if got := counts[telemetry.StagePrecise.String()]; got != nTx*perTx {
		t.Errorf("precise stage holds %d observations, want %d", got, nTx*perTx)
	}
	if got := counts[telemetry.StageCommit.String()]; got != nTx {
		t.Errorf("commit_release stage holds %d observations, want %d", got, nTx)
	}
	records := 0
	for _, rec := range telemetry.FlightRecords() {
		if rec.Det == g.Telemetry().ID() {
			records++
		}
	}
	if records != nTx*perTx {
		t.Errorf("%d flight records for %d invocations", records, nTx*perTx)
	}
}
