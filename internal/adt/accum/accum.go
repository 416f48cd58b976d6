// Package accum implements the paper's accumulator ADT (figure 7), the
// running example of the abstract-locking construction in §3.2: an
// integer accumulator whose increments commute with increments and whose
// reads commute with reads, but the two never commute with each other.
// Synthesizing its specification produces exactly the compatibility
// matrices of figure 8.
package accum

import (
	"sync"

	"commlat/internal/abslock"
	"commlat/internal/core"
	"commlat/internal/engine"
)

// Sig is the accumulator's ADT signature.
func Sig() *core.ADTSig {
	return &core.ADTSig{Name: "accumulator", Methods: []core.MethodSig{
		{Name: "inc", Params: []string{"x"}},
		{Name: "read", HasRet: true},
	}}
}

// Spec is the commutativity specification of figure 7.
func Spec() *core.Spec {
	s := core.NewSpec(Sig())
	s.Set("inc", "inc", core.True())
	s.Set("inc", "read", core.False())
	s.Set("read", "read", core.True())
	return s
}

// Accumulator is the guarded ADT: a total guarded by the abstract locking
// scheme synthesized from Spec (reduced to figure 8b's two ds modes).
type Accumulator struct {
	mgr       *abslock.Manager
	inc, read *abslock.Method // compiled acquisition handles
	mu        sync.Mutex
	sum       int64
	log       *engine.UndoLog[int64] // increments, undone by subtracting
}

// scheme is Spec's reduced scheme, synthesized once.
var scheme = abslock.Shipped(Spec)

// New creates a zeroed accumulator behind its synthesized detector.
func New() *Accumulator {
	mgr := abslock.NewManager(scheme(), nil)
	a := &Accumulator{mgr: mgr, inc: mgr.Method("inc"), read: mgr.Method("read")}
	a.log = engine.NewUndoLog(&a.mu, func(x int64) { a.sum -= x })
	return a
}

// Inc adds x to the accumulator within tx.
func (a *Accumulator) Inc(tx *engine.Tx, x int64) error {
	if err := a.mgr.Acquire(tx, a.inc, core.VInt(x)); err != nil {
		return err
	}
	a.mu.Lock()
	a.sum += x
	a.log.Record(tx, x)
	a.mu.Unlock()
	return nil
}

// Read returns the current total within tx.
func (a *Accumulator) Read(tx *engine.Tx) (int64, error) {
	if err := a.mgr.Acquire(tx, a.read); err != nil {
		return 0, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum, nil
}

// Total returns the total without conflict detection; only safe with no
// live transactions.
func (a *Accumulator) Total() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sum
}
