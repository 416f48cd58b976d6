package gatekeeper

import (
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// fuzzOp is what one operation did to an arm's representation.
type fuzzOp struct {
	ret        core.Value
	undo, redo func()
}

// fuzzMode is one ADT the General-vs-Forward fuzzer drives: a
// specification over two methods, how an operation's key and value
// become arguments, and the operation itself.
type fuzzMode struct {
	spec    *core.Spec
	methods [2]string
	args    func(method string, k, v int64) core.Vec
	apply   func(rep map[int64]int64, method string, k, v int64) fuzzOp
	// ordersKeys marks a mode with a condition that orders its keys (the
	// palette's x1 < x2), which fails to evaluate on a ref-kind key: a
	// plain error, the effect undone, nothing logged — from every arm
	// alike, and legitimate only while a ref-kind key is in play.
	ordersKeys bool
}

// fuzzRefKey is a key of ref kind: comparable, so conditions decide it,
// but not a value the disequality index can canonicalize.
type fuzzRefKey struct{ k int64 }

// fuzzSetKey spells key k in one of three ways, chosen by v: an int,
// which the disequality index buckets; a ref-kind value; or an integral
// float at or beyond 2⁵³ — the two kinds core.MapKey refuses, so probes
// with them fall back to the scan and entries holding them are filed
// unkeyed. Keys of different spellings are different keys.
func fuzzSetKey(k, v int64) core.Value {
	switch v {
	case 1:
		return core.V(fuzzRefKey{k})
	case 2:
		return core.VFloat(float64(1<<53 + 2*k))
	}
	return core.VInt(k)
}

// fuzzSetMode is the cascade fuzzer's ADT — "a" adds its key, "b"
// removes it — under a specification drawn from fuzzCond's
// function-free palette, so no condition needs a log or a rollback.
func fuzzSetMode(aa, ab, bb byte) fuzzMode {
	sig := &core.ADTSig{Name: "fuzzadt", Methods: []core.MethodSig{
		{Name: "a", Params: []string{"x"}, HasRet: true},
		{Name: "b", Params: []string{"x"}, HasRet: true},
	}}
	spec := core.NewSpec(sig)
	spec.Set("a", "a", fuzzCond(aa))
	spec.Set("a", "b", fuzzCond(ab))
	spec.Set("b", "b", fuzzCond(bb))
	return fuzzMode{
		spec:       spec,
		ordersKeys: aa%6 == 5 || ab%6 == 5 || bb%6 == 5,
		methods:    [2]string{"a", "b"},
		args:       func(_ string, k, v int64) core.Vec { return core.Args1(fuzzSetKey(k, v)) },
		apply: func(rep map[int64]int64, method string, k, v int64) fuzzOp {
			k += 8 * v // one representation slot per spelling
			_, present := rep[k]
			if present == (method == "a") {
				return fuzzOp{ret: core.VBool(false)}
			}
			add := func() { rep[k] = 1 }
			del := func() { delete(rep, k) }
			if method == "a" {
				add()
				return fuzzOp{ret: core.VBool(true), undo: del, redo: add}
			}
			del()
			return fuzzOp{ret: core.VBool(true), undo: add, redo: del}
		},
	}
}

// fuzzKVMode is forward_kv_test.go's kv store, whose specification has
// the two logged shapes the palette lacks: lookup(s1, k1), which
// Forward logs before the put executes (cmPre) and General reads under
// rollback, and lookup(s2, k2), which Forward captures before the
// incoming put executes (fn2Pre) and General reads at the put's own
// rollback point. The specification is sound (TestKVOnlineSpecSound),
// which is what makes General's live-journal rollback reach the state
// Forward logged.
func fuzzKVMode() fuzzMode {
	return fuzzMode{
		spec:    kvOnlineSpec(),
		methods: [2]string{"put", "get"},
		args: func(method string, k, v int64) core.Vec {
			if method == "put" {
				return core.Args2(core.VInt(k), core.VInt(v))
			}
			return core.Args1(core.VInt(k))
		},
		apply: func(rep map[int64]int64, method string, k, v int64) fuzzOp {
			old := rep[k]
			if method == "get" || old == v {
				return fuzzOp{ret: core.VInt(old)}
			}
			rep[k] = v
			return fuzzOp{ret: core.VInt(old), undo: func() { rep[k] = old }, redo: func() { rep[k] = v }}
		},
	}
}

// fuzzArm is one gatekeeper guarding its own copy of the representation.
type fuzzArm struct {
	name   string
	rep    map[int64]int64
	invoke func(tx *engine.Tx, method string, args core.Vec, apply func() fuzzOp) (core.Value, error)
	active func() int
	txs    [3]*engine.Tx
}

// FuzzGeneralAgreesWithForward drives one randomized
// invoke/commit/abort stream through a forward and a general gatekeeper
// built from the same ONLINE-CHECKABLE specification, each with and
// without the disequality index, and requires the same verdict, return
// value, active-log size and representation after every step.
func FuzzGeneralAgreesWithForward(f *testing.F) {
	f.Add([]byte{2, 4, 3, 0, 1, 10, 20, 2, 11, 30, 0, 12})
	f.Add([]byte{1, 1, 1, 1, 0, 1, 10, 1, 1, 20})
	f.Add([]byte{5, 5, 5, 0, 0, 3, 4, 1, 7, 2, 2, 5})
	f.Add([]byte{0, 0, 0, 3, 0, 9, 4, 1, 1, 9, 2, 17, 21, 1, 5, 9, 18, 0})
	f.Add([]byte{0, 0, 0, 7, 1, 2, 0, 10, 3, 2, 4, 10, 18, 0, 2, 2, 21, 0, 1, 10})
	// Unkeyable keys with other transactions active: tx0 adds key 1 as a
	// ref and as a 2⁵³ float; tx1 is refused the ref and admitted the int;
	// tx2 is refused removing the float and admitted another ref; tx0
	// aborts, tx1 gets the ref, tx2 commits.
	f.Add([]byte{4, 3, 2, 0, 0, 9, 0, 17, 4, 9, 4, 1, 5, 17, 2, 10, 21, 0, 4, 9, 20, 0})
	// The same under x1 < x2, which cannot order a ref: a plain error.
	f.Add([]byte{5, 5, 5, 0, 0, 9, 4, 1, 4, 10, 2, 17, 21, 0, 4, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		mode := fuzzSetMode(data[0], data[1], data[2])
		if data[3]%4 == 3 {
			mode = fuzzKVMode()
		}
		var arms []*fuzzArm
		for _, cfg := range []Config{{}, {DisableIndex: true}} {
			fwd := &fuzzArm{name: "forward", rep: map[int64]int64{}}
			gen := &fuzzArm{name: "general", rep: map[int64]int64{}}
			if cfg.DisableIndex {
				fwd.name, gen.name = "forward/noindex", "general/noindex"
			}
			lookup := func(a *fuzzArm) core.StateFn {
				return func(fn string, args []core.Value) (core.Value, error) {
					if fn != "lookup" {
						return core.Value{}, core.ErrUnknownFn(fn)
					}
					return core.VInt(a.rep[args[0].Int()]), nil
				}
			}
			fg, err := NewForwardConfig(mode.spec, lookup(fwd), cfg)
			if err != nil {
				t.Fatalf("NewForwardConfig: %v", err)
			}
			gg, err := NewGeneralConfig(mode.spec, lookup(gen), cfg)
			if err != nil {
				t.Fatalf("NewGeneralConfig: %v", err)
			}
			fwd.active, gen.active = fg.ActiveInvocations, gg.ActiveInvocations
			fwd.invoke = func(tx *engine.Tx, method string, args core.Vec, apply func() fuzzOp) (core.Value, error) {
				return fg.Invoke(tx, method, args, func() Effect {
					op := apply()
					return Effect{Ret: op.ret, Undo: op.undo}
				})
			}
			gen.invoke = func(tx *engine.Tx, method string, args core.Vec, apply func() fuzzOp) (core.Value, error) {
				return gg.Invoke(tx, method, args, func() GEffect {
					op := apply()
					return GEffect{Ret: op.ret, Undo: op.undo, Redo: op.redo}
				})
			}
			arms = append(arms, fwd, gen)
		}
		for _, a := range arms {
			for i := range a.txs {
				a.txs[i] = engine.NewTx()
			}
		}
		defer func() {
			for _, a := range arms {
				for _, tx := range a.txs {
					tx.Abort()
				}
				if n := a.active(); n != 0 {
					t.Errorf("%s leaked %d active invocations", a.name, n)
				}
			}
		}()

		ref := arms[0]
		// refHeld[i]: transaction i has been admitted a ref-kind key since it
		// began, so another transaction's check may have to order against it.
		var refHeld [3]bool
		ops := data[4:]
		for step := 0; len(ops) >= 2; step++ {
			sel, argB := ops[0], ops[1]
			ops = ops[2:]
			ti := int(sel) % len(ref.txs)
			act := (sel / 3) % 8
			method := mode.methods[sel&1]
			k, v := int64(argB%8), int64(argB>>3)%3 // small key space: force collisions
			// A plain error has one legitimate source: x1 < x2 asked of a ref.
			// Anywhere else it is a bug all four arms share (they share the
			// logged core), which the cross-arm comparison below cannot see.
			mayFail := mode.ordersKeys && (v == 1 || refHeld[(ti+1)%3] || refHeld[(ti+2)%3])
			var refRet core.Value
			var refErr error
			for _, a := range arms {
				switch act {
				case 6:
					a.txs[ti].Commit()
					a.txs[ti] = engine.NewTx()
				case 7:
					a.txs[ti].Abort()
					a.txs[ti] = engine.NewTx()
				default:
					rep := a.rep
					ret, err := a.invoke(a.txs[ti], method, mode.args(method, k, v),
						func() fuzzOp { return mode.apply(rep, method, k, v) })
					if err != nil && !engine.IsConflict(err) && !mayFail {
						t.Fatalf("step %d %s(%d,%d) tx%d: %s: non-conflict error %v", step, method, k, v, ti, a.name, err)
					}
					if a == ref {
						refRet, refErr = ret, err
					} else if (err == nil) != (refErr == nil) || engine.IsConflict(err) != engine.IsConflict(refErr) {
						t.Fatalf("step %d %s(%d,%d) tx%d: %s err=%v, %s err=%v", step, method, k, v, ti, ref.name, refErr, a.name, err)
					} else if err == nil && ret != refRet {
						t.Fatalf("step %d %s(%d,%d) tx%d: %s ret=%v, %s ret=%v", step, method, k, v, ti, ref.name, refRet, a.name, ret)
					}
				}
				if a.active() != ref.active() {
					t.Fatalf("step %d: %s has %d active invocations, %s has %d", step, ref.name, ref.active(), a.name, a.active())
				}
				if len(a.rep) != len(ref.rep) {
					t.Fatalf("step %d: representations diverged: %s %v, %s %v", step, ref.name, ref.rep, a.name, a.rep)
				}
				for key, val := range ref.rep {
					if got, ok := a.rep[key]; !ok || got != val {
						t.Fatalf("step %d: representations diverged: %s %v, %s %v", step, ref.name, ref.rep, a.name, a.rep)
					}
				}
			}
			if act >= 6 {
				refHeld[ti] = false
			} else if v == 1 && refErr == nil {
				refHeld[ti] = true
			}
		}
	})
}
