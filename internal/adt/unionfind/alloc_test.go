package unionfind

import (
	"slices"
	"testing"

	"commlat/internal/engine"
)

// TestMLUndoAllocatesNothing: uf-ml logs a compressing find's and a
// union's writes in its undo log through a scratch buffer, so a
// steady-state transaction allocates nothing, whether it commits or its
// abort reverts the writes.
func TestMLUndoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops transactions at random under -race")
	}
	m := NewML(8)
	m.f.parent[0], m.f.parent[1] = 1, 2 // the chain 0 → 1 → 2
	want := slices.Clone(m.f.parent)
	step := func(commit bool) {
		tx := engine.GetTx()
		if r, err := m.Find(tx, 0); r != 2 || err != nil {
			t.Fatalf("Find(0) = %v, %v", r, err)
		}
		if ok, err := m.Union(tx, 3, 4); !ok || err != nil {
			t.Fatalf("Union(3, 4) = %v, %v", ok, err)
		}
		if m.f.parent[0] != 2 || m.f.parent[3] != 4 {
			t.Fatalf("find and union left parents %v", m.f.parent)
		}
		if commit {
			tx.Commit()
			m.f.parent[0], m.f.parent[3] = 1, 3 // undo the committed writes by hand
		} else {
			tx.Abort()
		}
		engine.PutTx(tx)
		if !slices.Equal(m.f.parent, want) {
			t.Fatalf("commit=%v: parents %v, want %v", commit, m.f.parent, want)
		}
	}
	for _, commit := range []bool{true, false} {
		if allocs := testing.AllocsPerRun(100, func() { step(commit) }); allocs != 0 {
			t.Errorf("commit=%v: a compressing find and a union allocate %v per transaction, want 0", commit, allocs)
		}
	}
	if n := m.log.Records(); n != 2 {
		t.Errorf("undo log holds %d records, want the 2 one transaction needs", n)
	}
}
