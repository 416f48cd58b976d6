package intset

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"commlat/internal/engine"
)

// TestShardedSetSequentialSemantics checks a single-threaded op stream
// agrees with a plain map and with the unsharded CascadeSet.
func TestShardedSetSequentialSemantics(t *testing.T) {
	s := NewShardedCascaded(func() Rep { return NewHashRep() }, 4)
	ref := NewCascaded(NewHashRep())
	model := map[int64]bool{}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		x := int64(r.Intn(64))
		tx1, tx2 := engine.NewTx(), engine.NewTx()
		switch r.Intn(3) {
		case 0:
			got, err := s.Add(tx1, x)
			want, rerr := ref.Add(tx2, x)
			if err != nil || rerr != nil {
				t.Fatalf("add(%d): %v / %v", x, err, rerr)
			}
			if got != want || got == model[x] {
				t.Fatalf("add(%d) = %v, ref %v, model had %v", x, got, want, model[x])
			}
			model[x] = true
		case 1:
			got, err := s.Remove(tx1, x)
			want, rerr := ref.Remove(tx2, x)
			if err != nil || rerr != nil {
				t.Fatalf("remove(%d): %v / %v", x, err, rerr)
			}
			if got != want || got != model[x] {
				t.Fatalf("remove(%d) = %v, ref %v, model %v", x, got, want, model[x])
			}
			delete(model, x)
		default:
			got, err := s.Contains(tx1, x)
			want, rerr := ref.Contains(tx2, x)
			if err != nil || rerr != nil {
				t.Fatalf("contains(%d): %v / %v", x, err, rerr)
			}
			if got != want || got != model[x] {
				t.Fatalf("contains(%d) = %v, ref %v, model %v", x, got, want, model[x])
			}
		}
		tx1.Commit()
		tx2.Commit()
	}
	got := s.Snapshot()
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	var want []int64
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("snapshot[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestShardedSetAbortRollsBack checks undo plumbing through the router:
// an aborted transaction's effects vanish from the right shard.
func TestShardedSetAbortRollsBack(t *testing.T) {
	s := NewShardedCascaded(func() Rep { return NewHashRep() }, 4)
	tx := engine.NewTx()
	for x := int64(0); x < 16; x++ {
		if ok, err := s.Add(tx, x); err != nil || !ok {
			t.Fatalf("add(%d) = %v, %v", x, ok, err)
		}
	}
	tx.Abort()
	if n := len(s.Snapshot()); n != 0 {
		t.Fatalf("aborted adds left %d elements", n)
	}
	if n := s.Sharded().ActiveInvocations(); n != 0 {
		t.Fatalf("window leaked %d invocations", n)
	}
}

// TestShardedSetBatchStressRace is TestBatchStressRace through the
// router: ShardedCascadeSet.AddBatch splits each batch into same-shard
// runs and admits them on the single-writer path; conflicted stragglers
// retry serially through Invoke. Sweeps shard count × parallelism; run
// with -race.
func TestShardedSetBatchStressRace(t *testing.T) {
	items := 4000
	if testing.Short() {
		items = 800
	}
	for _, shards := range []int{1, 4, 16} {
		for _, procs := range []int{2, 8} {
			t.Run(fmt.Sprintf("shards%d/procs%d", shards, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)

				keys := make([]int64, items)
				want := map[int64]bool{}
				for i := range keys {
					keys[i] = int64((i * 2654435761) % (items / 8))
					want[keys[i]] = true
				}

				s := NewShardedCascaded(func() Rep { return NewHashRep() }, shards)
				stats, err := engine.RunItemsBatched(keys, engine.Options{
					Workers:   procs,
					BatchSize: 32,
				}, func(txs []*engine.Tx, xs []int64, _ *engine.Worklist[int64], errs []error) error {
					rets := make([]bool, len(xs))
					s.AddBatch(txs, xs, rets, errs)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if stats.Committed != uint64(items) {
					t.Fatalf("committed %d of %d items", stats.Committed, items)
				}

				tx := engine.NewTx()
				for k := range want {
					ok, err := s.Contains(tx, k)
					if err != nil {
						t.Fatalf("contains %d: %v", k, err)
					}
					if !ok {
						t.Errorf("key %d missing after batched run", k)
					}
				}
				tx.Commit()
				if got := s.Sharded().ActiveInvocations(); got != 0 {
					t.Errorf("ActiveInvocations = %d after run, want 0", got)
				}
				if got, wantN := len(s.Snapshot()), len(want); got != wantN {
					t.Errorf("snapshot has %d elements, want %d", got, wantN)
				}
				d := s.Telemetry()
				if d.ShardLocals() == 0 {
					t.Error("no shard-local admissions counted")
				}
			})
		}
	}
}
