// Package adaptive implements the future-work system sketched at the end
// of the paper's §5: "the ability to rank checkers by permittivity can
// allow an automated system to adaptively and dynamically select from
// these implementations as run-time needs change, given observations of
// parallelism and overhead."
//
// A Ladder is a list of conflict-detector implementations of the same
// ADT, ranked by lattice position (least to most permissive). The
// Controller hill-climbs the ladder: the workload is processed in
// epochs, each epoch's throughput and abort ratio are observed, and the
// controller moves toward the better-performing neighbor, occasionally
// probing unexplored rungs. Switching happens at epoch boundaries — a
// quiescent point with no live transactions — by snapshotting the
// abstract state out of one implementation and seeding the next, which
// is possible precisely because all rungs implement the same abstract
// data type.
package adaptive

import (
	"fmt"
	"time"

	"commlat/internal/adt/intset"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
	"commlat/internal/workload"
)

// Sample is one epoch's observation of a rung.
type Sample struct {
	Rung       int
	Ops        int
	AbortRatio float64
	Throughput float64 // committed operations per second
}

// Controller is the ε-free hill-climbing policy: it keeps the best
// observed throughput per rung and, after each epoch, picks the next
// rung to run — preferring an unexplored neighbor of the current rung,
// otherwise the best-known rung, drifting one step at a time.
type Controller struct {
	rungs   int
	current int
	best    []float64 // best observed throughput per rung; 0 = unexplored
}

// NewController creates a controller over n ranked rungs, starting at
// rung start.
func NewController(n, start int) *Controller {
	if n < 1 || start < 0 || start >= n {
		panic("adaptive: bad controller configuration")
	}
	return &Controller{rungs: n, current: start, best: make([]float64, n)}
}

// Current returns the rung the next epoch should run on.
func (c *Controller) Current() int { return c.current }

// Observe records an epoch's sample and decides the next rung.
func (c *Controller) Observe(s Sample) int {
	if s.Rung >= 0 && s.Rung < c.rungs && s.Throughput > c.best[s.Rung] {
		c.best[s.Rung] = s.Throughput
	}
	// Probe an unexplored neighbor first: without data the ladder cannot
	// be ranked.
	for _, nb := range []int{c.current + 1, c.current - 1} {
		if nb >= 0 && nb < c.rungs && c.best[nb] == 0 {
			c.current = nb
			return c.current
		}
	}
	// Otherwise drift one step toward the best-known rung.
	bestRung := c.current
	for r := 0; r < c.rungs; r++ {
		if c.best[r] > c.best[bestRung] {
			bestRung = r
		}
	}
	switch {
	case bestRung > c.current:
		c.current++
	case bestRung < c.current:
		c.current--
	}
	return c.current
}

// Rung is one implementation in a ladder: a constructor that builds the
// detector-guarded set pre-seeded with the given elements.
type Rung struct {
	Name string
	Make func(seed []int64) intset.Set
}

// DefaultLadder is the set's lattice ladder in permissiveness order:
// global lock (⊥), exclusive element locks, read/write element locks
// (figure 3), liberal guarded locks (figure 2 via the footnote-6
// extension), forward gatekeeper (figure 2), the gatekeeper behind the
// cascade's signature filter and optimistic index — same verdicts as
// the gatekeeper rung, cheaper admissions under low contention — and
// the cascade behind the affinity router, which partitions admission
// state by key so disjoint workers stop sharing cache lines. The last
// three rungs share one verdict relation; they differ only in admission
// cost, which is exactly what the controller's throughput samples rank.
func DefaultLadder() []Rung {
	return []Rung{
		{Name: "global", Make: func(e []int64) intset.Set { return seeded(intset.NewGlobalLock(intset.NewHashRep()), e) }},
		{Name: "exclusive", Make: func(e []int64) intset.Set { return seeded(intset.NewExclusiveLocked(intset.NewHashRep()), e) }},
		{Name: "rw", Make: func(e []int64) intset.Set { return seeded(intset.NewRWLocked(intset.NewHashRep()), e) }},
		{Name: "liberal", Make: func(e []int64) intset.Set { return seeded(intset.NewLiberalLocked(intset.NewHashRep()), e) }},
		{Name: "gatekeeper", Make: func(e []int64) intset.Set { return seeded(intset.NewGatekept(intset.NewHashRep()), e) }},
		{Name: "cascade", Make: func(e []int64) intset.Set { return seeded(intset.NewCascaded(intset.NewHashRep()), e) }},
		ShardedRung(0),
	}
}

// seeded adds elems to s in one committed transaction.
func seeded(s intset.Set, elems []int64) intset.Set {
	tx := engine.NewTx()
	for _, x := range elems {
		if _, err := s.Add(tx, x); err != nil {
			panic(fmt.Sprintf("adaptive: seeding conflicted: %v", err))
		}
	}
	tx.Commit()
	return s
}

// ShardedRung builds the cascade-sharded rung with an explicit shard
// count (0: gatekeeper.DefaultShards), for callers overriding the
// default rung — e.g. commlat adaptive -shards.
func ShardedRung(shards int) Rung {
	return Rung{Name: "cascade-sharded", Make: func(e []int64) intset.Set {
		return seeded(intset.NewShardedCascaded(func() intset.Rep { return intset.NewHashRep() }, shards), e)
	}}
}

// Trace is the record of an adaptive run.
type Trace struct {
	Samples []Sample
	Final   intset.Set
	// Switches counts rung changes.
	Switches int
}

// Run processes ops in epochs of epochSize with an overlap window of
// `window` live transactions (as in the Table 2 harness), starting on
// rung start, migrating the set's contents whenever the controller
// switches rungs.
func Run(ladder []Rung, ops []workload.SetOp, epochSize, window, start int) (*Trace, error) {
	if epochSize <= 0 || window <= 0 {
		return nil, fmt.Errorf("adaptive: bad epoch %d / window %d", epochSize, window)
	}
	ctl := NewController(len(ladder), start)
	cur := ladder[ctl.Current()].Make(nil)
	trace := &Trace{}
	// One telemetry detector per adaptive run, with the rung names as its
	// vocabulary: rung transitions are counted as (from, to) pairs and
	// emitted as decision events.
	names := make([]string, len(ladder))
	for i, r := range ladder {
		names[i] = r.Name
	}
	tele := telemetry.Register("adaptive", "ladder", names)
	epoch := 0
	for lo := 0; lo < len(ops); lo += epochSize {
		hi := lo + epochSize
		if hi > len(ops) {
			hi = len(ops)
		}
		rung := ctl.Current()
		stats, dur, err := runEpoch(cur, ops[lo:hi], window)
		if err != nil {
			return trace, err
		}
		s := Sample{
			Rung:       rung,
			Ops:        hi - lo,
			AbortRatio: stats.AbortRatio(),
			Throughput: float64(hi-lo) / dur.Seconds(),
		}
		trace.Samples = append(trace.Samples, s)
		tele.IncInvocation()
		next := ctl.Observe(s)
		if hi == len(ops) {
			next = rung // the run is over: no epoch is left to move for
		}
		moved := next != rung
		reason := telemetry.AuditHold
		switch {
		case next > rung:
			reason = telemetry.AuditClimb
		case next < rung:
			reason = telemetry.AuditBackoff
		}
		telemetry.RecordAudit(telemetry.AuditEntry{
			Controller: "ladder", Det: tele.ID(), Window: s.Ops,
			ConflictRate: s.AbortRatio,
			FromRung:     rung, ToRung: next,
			Moved: moved, Reason: reason,
		})
		if moved {
			// Quiescent point: migrate the abstract state to the new rung.
			cur = ladder[next].Make(cur.Snapshot())
			trace.Switches++
			tele.Check(uint16(rung), uint16(next))
			if telemetry.TraceEnabled() {
				telemetry.EmitDecision(tele.ID(), int64(epoch), uint16(rung), uint16(next))
			}
		}
		epoch++
	}
	trace.Final = cur
	return trace, nil
}

// runEpoch mirrors bench.RunSetMicro's overlap-window execution.
func runEpoch(s intset.Set, ops []workload.SetOp, window int) (engine.Stats, time.Duration, error) {
	var aborts uint64
	start := time.Now()
	open := make([]*engine.Tx, 0, window)
	commitOldest := func() {
		open[0].Commit()
		open = open[1:]
	}
	for _, op := range ops {
		for {
			tx := engine.NewTx()
			var err error
			if op.Add {
				_, err = s.Add(tx, op.X)
			} else {
				_, err = s.Contains(tx, op.X)
			}
			if err == nil {
				open = append(open, tx)
				if len(open) == window {
					commitOldest()
				}
				break
			}
			if !engine.IsConflict(err) {
				tx.Abort()
				return engine.Stats{}, 0, err
			}
			tx.Abort()
			aborts++
			if len(open) > 0 {
				commitOldest()
			}
		}
	}
	for _, tx := range open {
		tx.Commit()
	}
	d := time.Since(start)
	return engine.Stats{Committed: uint64(len(ops)), Aborts: aborts, Elapsed: d}, d, nil
}
