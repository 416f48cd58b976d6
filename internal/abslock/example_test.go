package abslock_test

import (
	"fmt"

	"commlat/internal/abslock"
	"commlat/internal/core"
	"commlat/internal/engine"
)

// Synthesizing the paper's accumulator scheme (figures 7 → 8) and running
// transactions against it.
func ExampleSynthesize() {
	sig := &core.ADTSig{Name: "accumulator", Methods: []core.MethodSig{
		{Name: "inc", Params: []string{"x"}},
		{Name: "read", HasRet: true},
	}}
	spec := core.NewSpec(sig)
	spec.Set("inc", "inc", core.True())
	spec.Set("inc", "read", core.False())
	spec.Set("read", "read", core.True())

	scheme, _ := abslock.Synthesize(spec)
	reduced := scheme.Reduce()
	fmt.Println("full modes:", len(scheme.Modes), "reduced modes:", len(reduced.Modes))

	mgr := abslock.NewManager(reduced, nil)
	inc, read := mgr.Method("inc"), mgr.Method("read")
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	err1 := mgr.Acquire(tx1, inc, core.VInt(1))
	err2 := mgr.Acquire(tx2, read)
	fmt.Println("inc acquired:", err1 == nil)
	fmt.Println("read conflicts:", engine.IsConflict(err2))
	tx2.Abort()
	tx1.Commit()
	// Output:
	// full modes: 4 reduced modes: 2
	// inc acquired: true
	// read conflicts: true
}
