package gatekeeper

import (
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// fuzzCondPalette builds the condition for palette index i (mod 6).
// Every entry is function-free, so both detectors accept it and the
// cascade's no-log restriction never triggers; the palette spans all
// plan shapes: trivially-true pairs, never-commuting pairs, pure
// disequality guards (indexed), guarded disequalities with return
// constraints, and a non-decomposable ordering (scan plans on the
// cascade, fallback scans on Forward).
func fuzzCond(i byte) core.Cond {
	switch i % 6 {
	case 0:
		return core.True()
	case 1:
		return core.False()
	case 2:
		return core.Ne(core.Arg1(0), core.Arg2(0))
	case 3:
		return core.Or(core.Ne(core.Arg1(0), core.Arg2(0)), core.Eq(core.Ret1(), core.Lit(false)))
	case 4:
		return core.Or(core.Ne(core.Arg1(0), core.Arg2(0)),
			core.And(core.Eq(core.Ret1(), core.Lit(false)), core.Eq(core.Ret2(), core.Lit(false))))
	default:
		return core.Lt(core.Arg1(0), core.Arg2(0))
	}
}

// FuzzCascadeAgreesWithGatekeeper feeds the same randomized invocation
// stream through a forward gatekeeper and a cascade built from the same
// randomized specification, each guarding its own copy of a set
// representation, and requires identical verdicts — admitted/conflicted
// and return value — on every single operation.
func FuzzCascadeAgreesWithGatekeeper(f *testing.F) {
	f.Add([]byte{2, 4, 3, 0, 1, 10, 20, 2, 11, 30, 0, 12})
	f.Add([]byte{1, 1, 1, 1, 0, 1, 10, 1, 1, 20})
	f.Add([]byte{5, 5, 5, 0, 0, 3, 4, 1, 7, 2, 2, 5})
	f.Add([]byte{0, 2, 4, 1, 7, 6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		sig := &core.ADTSig{Name: "fuzzadt", Methods: []core.MethodSig{
			{Name: "a", Params: []string{"x"}, HasRet: true},
			{Name: "b", Params: []string{"x"}, HasRet: true},
		}}
		spec := core.NewSpec(sig)
		spec.Set("a", "a", fuzzCond(data[0]))
		spec.Set("a", "b", fuzzCond(data[1]))
		spec.Set("b", "b", fuzzCond(data[2]))

		fw, err := NewForward(spec, nil)
		if err != nil {
			// A palette spec Forward rejects is out of scope; the palette
			// is fn-free so this should not happen.
			t.Fatalf("NewForward: %v", err)
		}
		cfg := CascadeConfig{}
		if data[3]%4 == 0 {
			cfg.SlotCapacity = 2 // force the overflow path regularly
		}
		cs, err := NewCascadeConfig(spec, nil, cfg)
		if err != nil {
			t.Fatalf("NewCascadeConfig: %v", err)
		}

		// Two independent representation copies; method "a" behaves like
		// add, "b" like remove. If the detectors agree on every verdict
		// the copies stay identical.
		fwRep := map[int64]bool{}
		csRep := map[int64]bool{}
		runOp := func(rep map[int64]bool, method string, x int64) func() Effect {
			return func() Effect {
				if method == "a" {
					if rep[x] {
						return Effect{Ret: core.VBool(false)}
					}
					rep[x] = true
					return Effect{Ret: core.VBool(true), Undo: func() { delete(rep, x) }}
				}
				if !rep[x] {
					return Effect{Ret: core.VBool(false)}
				}
				delete(rep, x)
				return Effect{Ret: core.VBool(true), Undo: func() { rep[x] = true }}
			}
		}

		const nTx = 3
		var fwTx, csTx [nTx]*engine.Tx
		for i := range fwTx {
			fwTx[i], csTx[i] = engine.NewTx(), engine.NewTx()
		}
		defer func() {
			for i := range fwTx {
				fwTx[i].Abort()
				csTx[i].Abort()
			}
			if fw.ActiveInvocations() != 0 {
				t.Errorf("forward log leaked %d entries", fw.ActiveInvocations())
			}
			if cs.ActiveInvocations() != 0 {
				t.Errorf("cascade window leaked %d invocations", cs.ActiveInvocations())
			}
		}()

		ops := data[4:]
		for len(ops) >= 2 {
			sel, argB := ops[0], ops[1]
			ops = ops[2:]
			ti := int(sel) % nTx
			switch act := (sel / nTx) % 8; act {
			case 6: // commit the pair, open fresh transactions
				fwTx[ti].Commit()
				csTx[ti].Commit()
				fwTx[ti], csTx[ti] = engine.NewTx(), engine.NewTx()
				continue
			case 7: // abort the pair
				fwTx[ti].Abort()
				csTx[ti].Abort()
				fwTx[ti], csTx[ti] = engine.NewTx(), engine.NewTx()
				continue
			}
			method := "a"
			if sel&1 == 1 {
				method = "b"
			}
			x := int64(argB % 8) // small key space: force collisions
			args := core.Args1(core.VInt(x))
			fr, ferr := fw.Invoke(fwTx[ti], fw.Method(method), args, runOp(fwRep, method, x))
			cr, cerr := cs.Invoke(csTx[ti], method, args, runOp(csRep, method, x))
			if (ferr == nil) != (cerr == nil) {
				t.Fatalf("%s(%d) tx%d: forward err=%v cascade err=%v", method, x, ti, ferr, cerr)
			}
			if ferr != nil {
				if !engine.IsConflict(ferr) || !engine.IsConflict(cerr) {
					t.Fatalf("%s(%d): non-conflict errors: forward=%v cascade=%v", method, x, ferr, cerr)
				}
				// Both aborted the invocation and undid its effect; the
				// transactions keep running (verdicts must keep agreeing
				// against the unchanged windows).
				continue
			}
			if fr != cr {
				t.Fatalf("%s(%d) tx%d: forward ret=%v cascade ret=%v", method, x, ti, fr, cr)
			}
		}
		for k := range fwRep {
			if !csRep[k] {
				t.Fatalf("representations diverged: %d in forward only", k)
			}
		}
		for k := range csRep {
			if !fwRep[k] {
				t.Fatalf("representations diverged: %d in cascade only", k)
			}
		}
	})
}
