package intset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"commlat/internal/engine"
)

// variants returns one instance of every conflict-detection variant,
// each over a fresh hash representation.
func variants() map[string]Set {
	return map[string]Set{
		"global":     NewGlobalLock(NewHashRep()),
		"exclusive":  NewExclusiveLocked(NewHashRep()),
		"rw":         NewRWLocked(NewHashRep()),
		"partition8": NewPartitionLocked(NewHashRep(), 8),
		"gatekeeper": NewGatekept(NewHashRep()),
		"gk-sorted":  NewGatekept(NewSortedRep()),
		"rw-sorted":  NewRWLocked(NewSortedRep()),
	}
}

// TestSequentialSemantics: with one transaction at a time, every variant
// behaves exactly like a plain set.
func TestSequentialSemantics(t *testing.T) {
	for name, s := range variants() {
		ref := map[int64]bool{}
		r := rand.New(rand.NewSource(42))
		for i := 0; i < 300; i++ {
			tx := engine.NewTx()
			x := int64(r.Intn(15))
			var got, want bool
			var err error
			switch r.Intn(3) {
			case 0:
				want = !ref[x]
				ref[x] = true
				got, err = s.Add(tx, x)
			case 1:
				want = ref[x]
				delete(ref, x)
				got, err = s.Remove(tx, x)
			default:
				want = ref[x]
				got, err = s.Contains(tx, x)
			}
			if err != nil {
				t.Fatalf("%s: single-tx op conflicted: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s: op returned %v, want %v", name, got, want)
			}
			tx.Commit()
		}
		snap := s.Snapshot()
		if len(snap) != len(ref) {
			t.Errorf("%s: snapshot %v vs ref %v", name, snap, ref)
		}
		for _, x := range snap {
			if !ref[x] {
				t.Errorf("%s: stray element %d", name, x)
			}
		}
	}
}

// TestAbortRollsBackAllVariants: a multi-op transaction that aborts must
// leave no trace in any variant.
func TestAbortRollsBackAllVariants(t *testing.T) {
	for name, s := range variants() {
		setup := engine.NewTx()
		if _, err := s.Add(setup, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		setup.Commit()
		tx := engine.NewTx()
		if _, err := s.Add(tx, 2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := s.Remove(tx, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tx.Abort()
		snap := s.Snapshot()
		if len(snap) != 1 || snap[0] != 1 {
			t.Errorf("%s: abort left %v, want [1]", name, snap)
		}
	}
}

// TestPermissivenessOrdering: the lattice position predicts which
// concurrent accesses are allowed. Two concurrent contains of the SAME
// element: exclusive locks conflict; rw locks, partition locks and the
// gatekeeper do not. A non-mutating add of a present element: only the
// gatekeeper (precise spec) allows a concurrent contains.
func TestPermissivenessOrdering(t *testing.T) {
	mustConflict := func(name string, err error) {
		if !engine.IsConflict(err) {
			t.Errorf("%s: expected conflict, got %v", name, err)
		}
	}
	mustOK := func(name string, err error) {
		if err != nil {
			t.Errorf("%s: expected success, got %v", name, err)
		}
	}

	// contains vs contains on the same key.
	for name, s := range variants() {
		seed := engine.NewTx()
		if _, err := s.Add(seed, 5); err != nil {
			t.Fatal(err)
		}
		seed.Commit()
		tx1, tx2 := engine.NewTx(), engine.NewTx()
		if _, err := s.Contains(tx1, 5); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err := s.Contains(tx2, 5)
		switch name {
		case "exclusive", "global":
			mustConflict(name, err)
		default:
			mustOK(name, err)
		}
		tx2.Abort()
		tx1.Abort()
	}

	// non-mutating add vs contains on the same key.
	for name, s := range variants() {
		seed := engine.NewTx()
		if _, err := s.Add(seed, 5); err != nil {
			t.Fatal(err)
		}
		seed.Commit()
		tx1, tx2 := engine.NewTx(), engine.NewTx()
		if _, err := s.Add(tx1, 5); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err := s.Contains(tx2, 5)
		switch name {
		case "gatekeeper", "gk-sorted":
			mustOK(name, err) // precise spec: the add did not mutate
		default:
			mustConflict(name, err)
		}
		tx2.Abort()
		tx1.Abort()
	}

	// partition coarseness: different elements, same partition.
	s := NewPartitionLocked(NewHashRep(), 8)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if _, err := s.Add(tx1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(tx2, 11); !engine.IsConflict(err) { // 11 ≡ 3 mod 8
		t.Errorf("partition: same-partition add should conflict, got %v", err)
	}
	if _, err := s.Add(tx2, 4); err != nil {
		t.Errorf("partition: different-partition add failed: %v", err)
	}
	tx2.Abort()
	tx1.Abort()
}

// TestConcurrentAddsOnly runs an adds-only speculative workload on every
// variant and validates the final contents against the committed
// operations.
func TestConcurrentAddsOnly(t *testing.T) {
	for name, s := range variants() {
		var mu sync.Mutex
		committed := map[int64]bool{}
		items := make([]int64, 400)
		r := rand.New(rand.NewSource(7))
		for i := range items {
			items[i] = int64(r.Intn(50))
		}
		stats, err := engine.RunItems(items, engine.Options{Workers: 8}, func(tx *engine.Tx, x int64, _ *engine.Worklist[int64]) error {
			if _, err := s.Add(tx, x); err != nil {
				return err
			}
			mu.Lock()
			committed[x] = true
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Committed != 400 {
			t.Errorf("%s: committed %d, want 400", name, stats.Committed)
		}
		snap := map[int64]bool{}
		for _, x := range s.Snapshot() {
			snap[x] = true
		}
		if fmt.Sprint(snap) != fmt.Sprint(committed) {
			t.Errorf("%s: final %v vs committed %v", name, snap, committed)
		}
	}
}

// TestConcurrentMixedWorkload exercises add/remove/contains across
// workers on *disjoint* key ranges (so every transaction eventually
// commutes) and validates per-worker final contents.
func TestConcurrentMixedWorkload(t *testing.T) {
	for name, s := range variants() {
		var mu sync.Mutex
		ref := map[int64]bool{} // guarded reference applied only on commit
		type op struct {
			kind string
			x    int64
		}
		var items []op
		r := rand.New(rand.NewSource(3))
		for w := 0; w < 8; w++ {
			for i := 0; i < 40; i++ {
				kind := []string{"add", "remove", "contains"}[r.Intn(3)]
				items = append(items, op{kind, int64(w*100 + r.Intn(10))})
			}
		}
		_, err := engine.RunItems(items, engine.Options{Workers: 8}, func(tx *engine.Tx, o op, _ *engine.Worklist[op]) error {
			var err error
			switch o.kind {
			case "add":
				_, err = s.Add(tx, o.x)
			case "remove":
				_, err = s.Remove(tx, o.x)
			default:
				_, err = s.Contains(tx, o.x)
			}
			if err != nil {
				return err
			}
			// Mirror the committed effect; the engine commits right after
			// the body returns nil, and conflicting keys are still locked
			// by this tx, so the mirror stays consistent per key.
			if o.kind != "contains" {
				mu.Lock()
				if o.kind == "add" {
					ref[o.x] = true
				} else {
					delete(ref, o.x)
				}
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap := map[int64]bool{}
		for _, x := range s.Snapshot() {
			snap[x] = true
		}
		if len(snap) != len(ref) {
			t.Errorf("%s: %d elements, ref %d", name, len(snap), len(ref))
		}
		for x := range ref {
			if !snap[x] {
				t.Errorf("%s: missing %d", name, x)
			}
		}
	}
}

// TestShippedPointsShareOneScheme: the shipped constructors synthesize
// each point once, so two sets at one point share its scheme, whatever
// their partition counts, while NewLocked still synthesizes every spec
// it is given.
func TestShippedPointsShareOneScheme(t *testing.T) {
	a, b := NewPartitionLocked(NewHashRep(), 4), NewPartitionLocked(NewHashRep(), 32)
	if a.mgr.Scheme() != b.mgr.Scheme() {
		t.Error("two NewPartitionLocked sets built two schemes")
	}
	for name, build := range map[string]func(Rep) *LockedSet{
		"global": NewGlobalLock, "exclusive": NewExclusiveLocked, "rw": NewRWLocked,
	} {
		s := build(NewHashRep())
		if s.mgr.Scheme() != build(NewHashRep()).mgr.Scheme() {
			t.Errorf("two %s sets built two schemes", name)
		}
		if s.mgr.Scheme() == a.mgr.Scheme() {
			t.Errorf("the %s and partition points share a scheme", name)
		}
	}
	if NewExclusiveLocked(NewHashRep()).mgr.Scheme() == NewRWLocked(NewHashRep()).mgr.Scheme() {
		t.Error("the exclusive and rw points share a scheme")
	}
	s, err := NewLocked(NewHashRep(), RWSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.mgr.Scheme() == NewRWLocked(NewHashRep()).mgr.Scheme() {
		t.Error("NewLocked reused a shipped scheme")
	}
}
