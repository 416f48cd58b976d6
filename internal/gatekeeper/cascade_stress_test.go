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

// cellSpec is the per-key writer/reader exclusion specification from
// the abslock stress suite: updates to the same datum never commute
// with anything touching that datum, observations always commute with
// each other. Its guards are pure disequalities, so the cascade runs
// them through the signature filter and the optimistic index.
func cellSpec() *core.Spec {
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

// cascadeExclusionStress hammers one cascade from many goroutines,
// checking the writer/reader exclusion the specification promises with
// per-key atomic occupancy counters — the serializability oracle — and
// that the window drains completely afterwards.
func cascadeExclusionStress(t *testing.T, cfg CascadeConfig, opsPerWorker int) {
	t.Helper()
	c, err := NewCascadeConfig(cellSpec(), nil, cfg)
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
					// Claim the key and validate exclusion. Violations are
					// recorded only here, at admission time: the release
					// hook below is registered after the cascade's own, so
					// the engine's LIFO hook order runs it first at
					// transaction end — the counter clears while the
					// cascade still holds the record live, so a racing
					// admission can never observe a stale claim.
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
		t.Fatalf("%d exclusion violations (concurrent conflicting holders)", n)
	}
	if n := c.ActiveInvocations(); n != 0 {
		t.Fatalf("cascade window leaked %d invocations", n)
	}
	var total int32
	for i := range occupancy {
		total += occupancy[i].Load()
	}
	if total != 0 {
		t.Fatalf("occupancy counters did not drain: %d", total)
	}
}

// TestCascadeExclusionSweep runs the exclusion stress across the
// parallelism ladder the lock-free protocol must hold up under,
// including GOMAXPROCS=1 (where optimistic retries come only from
// preemption) and oversubscription. Run with -race for the full check.
func TestCascadeExclusionSweep(t *testing.T) {
	ops := 300
	if testing.Short() {
		ops = 80
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			cascadeExclusionStress(t, CascadeConfig{}, ops)
		})
	}
}

// TestCascadeExclusionOverflowStress repeats the stress with a slot
// table far smaller than the live window, so admissions constantly
// spill to the overflow list and race slot releases.
func TestCascadeExclusionOverflowStress(t *testing.T) {
	ops := 200
	if testing.Short() {
		ops = 60
	}
	cascadeExclusionStress(t, CascadeConfig{SlotCapacity: 4}, ops)
}
