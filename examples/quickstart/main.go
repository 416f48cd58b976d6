// Quickstart: define a commutativity specification, place it in the
// lattice, synthesize its abstract-locking conflict detector, and run
// speculative transactions against it — the complete §2–§3 pipeline on
// the paper's accumulator running example plus the set of figures 2/3.
package main

import (
	"fmt"
	"sync"

	"commlat/internal/abslock"
	"commlat/internal/adt/intset"
	"commlat/internal/core"
	"commlat/internal/engine"
)

func main() {
	// 1. An ADT signature: the accumulator of figure 7.
	sig := &core.ADTSig{Name: "accumulator", Methods: []core.MethodSig{
		{Name: "inc", Params: []string{"x"}},
		{Name: "read", HasRet: true},
	}}

	// 2. Its commutativity specification: increments commute with
	// increments, reads with reads, and never with each other.
	spec := core.NewSpec(sig)
	spec.Set("inc", "inc", core.True())
	spec.Set("inc", "read", core.False())
	spec.Set("read", "read", core.True())
	fmt.Printf("specification (%s):\n%s\n", spec.Classify(), spec)

	// 3. SIMPLE specifications synthesize into abstract locking schemes
	// (Theorem 1); the reduction drops superfluous modes (figure 8).
	scheme, err := abslock.Synthesize(spec)
	if err != nil {
		panic(err)
	}
	reduced := scheme.Reduce()
	fmt.Println("reduced compatibility matrix (figure 8b):")
	fmt.Println(reduced.MatrixString())

	// 4. Run transactions against the synthesized detector, through
	// handles fetched once per method. The total logs each increment, and
	// an aborting transaction's log subtracts them again (the inverse
	// method, §3.3.2).
	mgr := abslock.NewManager(reduced, nil)
	inc, read := mgr.Method("inc"), mgr.Method("read")
	var mu sync.Mutex
	total := int64(0)
	incs := engine.NewUndoLog(&mu, func(x int64) { total -= x })
	add := func(tx *engine.Tx, x int64) func() core.Value {
		return func() core.Value {
			mu.Lock()
			total += x
			incs.Record(tx, x)
			mu.Unlock()
			return core.Value{}
		}
	}
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if _, err := mgr.Invoke(tx1, inc, core.Args1(core.VInt(5)), add(tx1, 5)); err != nil {
		panic(err)
	}
	// A concurrent increment commutes...
	if _, err := mgr.Invoke(tx2, inc, core.Args1(core.VInt(3)), add(tx2, 3)); err != nil {
		panic(err)
	}
	fmt.Println("two concurrent increments: no conflict, total =", total)
	// ...but a read under a live increment conflicts.
	tx3 := engine.NewTx()
	_, err = mgr.Invoke(tx3, read, core.Vec{}, func() core.Value { return core.VInt(total) })
	fmt.Println("concurrent read conflicts:", engine.IsConflict(err))
	tx3.Abort()
	tx1.Commit()
	tx2.Commit()

	// 5. The lattice in action: the set's precise spec (figure 2) sits
	// above the SIMPLE one (figure 3), which sits above exclusive locks
	// and ⊥ — and each point picks a different detector.
	precise, rw, ex, bot := intset.PreciseSpec(), intset.RWSpec(), intset.ExclusiveSpec(), intset.BottomSpec()
	fmt.Println("\nthe set's lattice chain (⊥ ≤ ex ≤ rw ≤ precise):")
	fmt.Println("  bottom ≤ exclusive:", bot.LE(ex))
	fmt.Println("  exclusive ≤ rw:    ", ex.LE(rw))
	fmt.Println("  rw ≤ precise:      ", rw.LE(precise))
	fmt.Println("  classes:            ", bot.Classify(), "/", rw.Classify(), "/", precise.Classify())

	// 6. The precise spec needs a forward gatekeeper: two non-mutating
	// adds of the same element proceed concurrently — something no
	// locking scheme can allow.
	set := intset.NewGatekept(intset.NewHashRep())
	seed := engine.NewTx()
	if _, err := set.Add(seed, 42); err != nil {
		panic(err)
	}
	seed.Commit()
	ta, tb := engine.NewTx(), engine.NewTx()
	ra, _ := set.Add(ta, 42)
	rb, errB := set.Add(tb, 42)
	fmt.Printf("\ngatekept set: concurrent add(42)/add(42) on {42}: %v/%v, conflict=%v\n",
		ra, rb, engine.IsConflict(errB))
	ta.Commit()
	tb.Commit()
}
