package intset

import (
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
	"commlat/internal/telemetry"
)

// ShardedCascadeSet guards a key-partitioned representation with the
// sharded cascade router. Detection state and representation state are
// partitioned by the same KeyOf mapping, so an element's admission and
// its mutation touch only that shard's filter, slot table, rep and
// mutex — a worker whose keys stay in one shard shares no cache lines
// with the others, which is the whole point of the affinity router.
type ShardedCascadeSet struct {
	c    *gatekeeper.ShardedCascade
	reps []paddedRep
}

// paddedRep keeps neighboring shard mutexes off one cache line.
type paddedRep struct {
	guardedRep
	_ [40]byte
}

// NewShardedCascaded builds a sharded cascade-guarded set; mk creates
// one representation shard (called once per shard), shards <= 0 means
// gatekeeper.DefaultShards.
func NewShardedCascaded(mk func() Rep, shards int) *ShardedCascadeSet {
	return NewShardedCascadedConfig(mk, gatekeeper.CascadeConfig{}, shards)
}

// NewShardedCascadedConfig is NewShardedCascaded with explicit
// per-shard cascade configuration.
func NewShardedCascadedConfig(mk func() Rep, cfg gatekeeper.CascadeConfig, shards int) *ShardedCascadeSet {
	c, err := gatekeeper.NewShardedConfig(PreciseSpec(), nil, cfg, shards)
	if err != nil {
		panic(err) // the precise set spec is log-free, hence cascadable
	}
	s := &ShardedCascadeSet{c: c, reps: make([]paddedRep, c.Shards())}
	for i := range s.reps {
		s.reps[i].rep = mk()
	}
	return s
}

// repFor maps an element to its representation shard — the same
// mapping the router uses for admission, so a single-shard invocation's
// rep accesses stay inside its admission shard.
func (s *ShardedCascadeSet) repFor(x int64) *guardedRep {
	sh, ok := s.c.KeyOf("add", core.Args1(core.VInt(x)))
	if !ok {
		sh = 0
	}
	return &s.reps[sh].guardedRep
}

func (s *ShardedCascadeSet) invoke(tx *engine.Tx, method string, x int64) (bool, error) {
	r := s.repFor(x)
	ret, err := s.c.Invoke(tx, method, core.Args1(core.VInt(x)), func() gatekeeper.Effect {
		return r.effect(method, x)
	})
	if err != nil {
		return false, err
	}
	return ret.Bool(), nil
}

// Add inserts x; it reports whether the set changed.
func (s *ShardedCascadeSet) Add(tx *engine.Tx, x int64) (bool, error) {
	return s.invoke(tx, "add", x)
}

// Remove deletes x.
func (s *ShardedCascadeSet) Remove(tx *engine.Tx, x int64) (bool, error) {
	return s.invoke(tx, "remove", x)
}

// Contains queries membership.
func (s *ShardedCascadeSet) Contains(tx *engine.Tx, x int64) (bool, error) {
	return s.invoke(tx, "contains", x)
}

// AddBatch is CascadeSet.AddBatch through the router: the batch splits
// into maximal same-shard runs, each admitted under its shard's ticket
// with that shard's rep mutex taken once for the run. The admitted
// prefix group-commits; the remainder re-runs serially, so every item
// gets exactly the serial verdict.
func (s *ShardedCascadeSet) AddBatch(txs []*engine.Tx, xs []int64, rets []bool, errs []error) int {
	opsp := stageAdds(txs, xs)
	p := s.c.InvokeBatch(*opsp, func(run []gatekeeper.BatchOp) {
		// A run is same-shard by construction, so one shard's rep covers
		// all of it.
		s.repFor(run[0].Args.At(0).Int()).addRun(run)
	})
	return commitAdds(s, opsp, p, txs, xs, rets, errs)
}

// Sharded exposes the underlying router (tests, telemetry).
func (s *ShardedCascadeSet) Sharded() *gatekeeper.ShardedCascade { return s.c }

// Telemetry returns the router's telemetry detector (local/crossing
// admission counters).
func (s *ShardedCascadeSet) Telemetry() *telemetry.Detector { return s.c.Telemetry() }

// Snapshot returns the elements across all shards; only safe with no
// live transactions.
func (s *ShardedCascadeSet) Snapshot() []int64 {
	var out []int64
	for i := range s.reps {
		out = append(out, s.reps[i].elems()...)
	}
	return out
}

var _ Set = (*ShardedCascadeSet)(nil)
