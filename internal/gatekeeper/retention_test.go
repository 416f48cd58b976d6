package gatekeeper

import (
	"runtime"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// blob is a user-type argument with a deliberately large heap footprint:
// if a pooled record (entry, jentry or Tx hook) fails to zero its
// Value fields on release, every pooled record pins one of these.
type blob struct{ data []byte }

const blobSize = 1 << 20 // 1 MiB

// heapBaseline settles the heap fully (two collections also empty the
// sync.Pools, victim caches included) and reads the live-heap size.
func heapBaseline() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapAfterOneGC runs a single collection and reads the live heap. One
// collection frees everything unreachable but keeps sync.Pool contents
// alive (they survive into the victim cache), so values still pinned by
// pooled records are visible in the measurement — exactly the retention
// the Value-zeroing on release exists to prevent.
func heapAfterOneGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retentionScenario runs one transaction holding `n` live invocations
// whose arguments each pin a 1 MiB blob, commits it (returning all n
// pooled records at once), flushes the per-gatekeeper scratch with a
// cheap invocation, and returns the live-heap growth over the baseline.
func retentionScenario(t *testing.T, invoke func(tx *engine.Tx, v core.Value) error) uint64 {
	t.Helper()
	const n = 64
	base := heapBaseline()
	tx := engine.NewTx()
	for i := 0; i < n; i++ {
		if err := invoke(tx, core.V(&blob{data: make([]byte, blobSize)})); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	// One small invocation flushes the latest-invocation scratch the
	// gatekeeper legitimately retains between calls.
	flush := engine.NewTx()
	if err := invoke(flush, core.VInt(0)); err != nil {
		t.Fatal(err)
	}
	flush.Commit()
	after := heapAfterOneGC()
	if after <= base {
		return 0
	}
	return after - base
}

// TestForwardPoolsDropUserValues: after a transaction with 64 active
// 1 MiB-blob invocations commits, the recycled entries must not pin the
// blobs (putEntry zeroes inv and log). Without the zeroing the pool
// retains ~64 MiB here.
func TestForwardPoolsDropUserValues(t *testing.T) {
	g, err := NewForward(rwSetSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	grew := retentionScenario(t, func(tx *engine.Tx, v core.Value) error {
		_, err := g.Invoke(tx, "add", core.Args1(v), func() Effect {
			return Effect{Ret: core.VBool(true)}
		})
		return err
	})
	if limit := uint64(8 * blobSize); grew > limit {
		t.Errorf("forward pools retain %d MiB of user values after release (limit %d MiB)",
			grew>>20, limit>>20)
	}
}

// TestGeneralPoolsDropUserValues is the same check for the general
// gatekeeper's entry/jentry pools (putEntry/putJentry zeroing).
func TestGeneralPoolsDropUserValues(t *testing.T) {
	g, err := NewGeneral(rwSetSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	grew := retentionScenario(t, func(tx *engine.Tx, v core.Value) error {
		_, err := g.Invoke(tx, "add", core.Args1(v), func() GEffect {
			return GEffect{Ret: core.VBool(true)}
		})
		return err
	})
	if limit := uint64(8 * blobSize); grew > limit {
		t.Errorf("general pools retain %d MiB of user values after release (limit %d MiB)",
			grew>>20, limit>>20)
	}
}

// TestTxPoolDropsHooks: a pooled transaction's undo/release hook slices
// must be zeroed on recycle (clearHooks), or the pooled Tx pins the last
// run's closures and through them arbitrary user state.
func TestTxPoolDropsHooks(t *testing.T) {
	base := heapBaseline()
	for i := 0; i < 16; i++ {
		tx := engine.GetTx()
		payload := &blob{data: make([]byte, blobSize)}
		tx.OnUndo(func() { _ = payload })
		tx.OnRelease(func() { _ = payload })
		tx.Commit()
		engine.PutTx(tx)
	}
	after := heapAfterOneGC()
	grew := uint64(0)
	if after > base {
		grew = after - base
	}
	if limit := uint64(4 * blobSize); grew > limit {
		t.Errorf("tx pool retains %d MiB through stale hooks (limit %d MiB)", grew>>20, limit>>20)
	}
}

// refusedBlobScenario leaves a gatekeeper idle right after it refused an
// invocation whose argument pins a 1 MiB blob — the refusal is the last
// thing its scratch saw — and returns the live-heap growth. invoke adds
// v for tx under a specification where equal arguments conflict.
func refusedBlobScenario(t *testing.T, invoke func(tx *engine.Tx, v core.Value) error, active func() int) uint64 {
	t.Helper()
	base := heapBaseline()
	func() {
		v := core.V(&blob{data: make([]byte, blobSize)})
		holder, refused := engine.NewTx(), engine.NewTx()
		if err := invoke(holder, v); err != nil {
			t.Fatal(err)
		}
		if err := invoke(refused, v); !engine.IsConflict(err) {
			t.Fatalf("second add of one blob must be refused, got %v", err)
		}
		refused.Abort()
		holder.Commit()
	}()
	if n := active(); n != 0 {
		t.Fatalf("%d invocations still active", n)
	}
	after := heapAfterOneGC()
	if after <= base {
		return 0
	}
	return after - base
}

// TestIdleGatekeeperKeepsNoScratch: the checker context, the check
// queue and the value windows point at entries and user values only
// inside an atomic section. A gatekeeper that kept them until the next
// invocation overwrote them would pin the refused blob here.
func TestIdleGatekeeperKeepsNoScratch(t *testing.T) {
	fg, err := NewForward(rwSetSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gg, err := NewGeneral(rwSetSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name   string
		invoke func(tx *engine.Tx, v core.Value) error
		active func() int
	}{
		{"forward", func(tx *engine.Tx, v core.Value) error {
			_, err := fg.Invoke(tx, "add", core.Args1(v), func() Effect { return Effect{Ret: core.VBool(true)} })
			return err
		}, fg.ActiveInvocations},
		{"general", func(tx *engine.Tx, v core.Value) error {
			_, err := gg.Invoke(tx, "add", core.Args1(v), func() GEffect { return GEffect{Ret: core.VBool(true)} })
			return err
		}, gg.ActiveInvocations},
	} {
		if grew := refusedBlobScenario(t, arm.invoke, arm.active); grew > blobSize/2 {
			t.Errorf("%s: idle gatekeeper retains %d KiB after a refused 1 MiB invocation", arm.name, grew>>10)
		}
	}
}
