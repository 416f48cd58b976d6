package sigfilter

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFilterCells(t *testing.T) {
	cases := []struct {
		name      string
		bits      int
		wantCells int
	}{
		{"clamped up", 0, 1 << 6},
		{"minimum", 6, 1 << 6},
		{"default", DefaultBits, 1 << DefaultBits},
		{"clamped down", 40, 1 << 24},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := New(c.bits)
			if got := len(f.cells); got != c.wantCells {
				t.Fatalf("New(%d) has %d cells, want %d", c.bits, got, c.wantCells)
			}
			n := uint64(c.wantCells)
			a, same, other := uint64(5), 5+7*n, uint64(6)
			if !f.SameCell(a, same) || f.Cell(a) != f.Cell(same) {
				t.Errorf("hashes %d and %d differ by a multiple of the table size and must share a cell", a, same)
			}
			if f.SameCell(a, other) || f.Cell(a) == f.Cell(other) {
				t.Errorf("hashes %d and %d must land in different cells", a, other)
			}
			if f.Cell(a) != uint32(a%n) {
				t.Errorf("Cell(%d) = %d, want %d", a, f.Cell(a), a%n)
			}

			f.Add(a)
			f.Add(same)
			f.Add(other)
			if got := f.Count(a); got != 2 {
				t.Errorf("Count after two publications in one cell = %d, want 2", got)
			}
			if got := f.Count(same); got != 2 {
				t.Errorf("Count through the aliasing hash = %d, want 2", got)
			}
			if got := f.Count(other); got != 1 {
				t.Errorf("Count of the neighbouring cell = %d, want 1", got)
			}
			f.Remove(a)
			if got := f.Count(same); got != 1 {
				t.Errorf("Count after one retraction = %d, want 1", got)
			}
			f.Remove(same)
			f.Remove(other)
			for i := range f.cells {
				if v := f.cells[i].Load(); v != 0 {
					t.Fatalf("cell %d = %d after every publication was retracted", i, v)
				}
			}
		})
	}
}

// TestMatchTag4FalseIsConclusive: whenever a lane of the word holds the
// probe tag, MatchTag4 must say so — for every 16-bit tag in every lane,
// whatever the other lanes hold. (True may be a false alarm; callers
// re-verify.)
func TestMatchTag4FalseIsConclusive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fills := [][4]uint16{
		{0, 0, 0, 0},
		{0xffff, 0xffff, 0xffff, 0xffff},
		{0x8000, 0x7fff, 0x0001, 0xfffe},
		{uint16(r.Uint32()), uint16(r.Uint32()), uint16(r.Uint32()), uint16(r.Uint32())},
	}
	for lane := 0; lane < 4; lane++ {
		for _, fill := range fills {
			for tag := 0; tag <= 0xffff; tag++ {
				var w uint64
				for l := 0; l < 4; l++ {
					lt := fill[l]
					if l == lane {
						lt = uint16(tag)
					}
					w = PackTag16(w, l, lt)
				}
				if !MatchTag4(w, SpreadTag16(uint16(tag))) {
					t.Fatalf("lane %d of %#016x holds tag %#04x but MatchTag4 returned false", lane, w, tag)
				}
			}
		}
	}
	// And the converse on random words: a false result really means no
	// lane matches.
	for i := 0; i < 1<<20; i++ {
		w, tag := r.Uint64(), uint16(r.Uint32())
		if MatchTag4(w, SpreadTag16(tag)) {
			continue
		}
		for l := 0; l < 4; l++ {
			if uint16(w>>(uint(l)*16)) == tag {
				t.Fatalf("MatchTag4(%#016x, %#04x) = false with the tag in lane %d", w, tag, l)
			}
		}
	}
}

func TestPackTag16(t *testing.T) {
	var w uint64
	tags := [4]uint16{0x1234, 0, 0xffff, 0x8001}
	for l, tag := range tags {
		w = PackTag16(w, l, tag)
	}
	for l, tag := range tags {
		if got := uint16(w >> (uint(l) * 16)); got != tag {
			t.Errorf("lane %d = %#04x, want %#04x", l, got, tag)
		}
	}
}

// owners marks the indices currently popped and not yet pushed back, so
// an index handed out twice shows as a failed claim.
type owners []atomic.Int32

func (o owners) claim(t *testing.T, idx uint32) {
	if !o[idx].CompareAndSwap(0, 1) {
		t.Errorf("index %d popped while already owned", idx)
	}
}

func (o owners) release(idx uint32) { o[idx].Store(0) }

func TestStackSequential(t *testing.T) {
	const n = 16
	s := NewStack(n)
	own := make(owners, n)

	// A fresh stack pops every index once, in ascending order, then is
	// empty.
	for want := uint32(0); want < n; want++ {
		idx, ok := s.Pop()
		if !ok || idx != want {
			t.Fatalf("Pop #%d = (%d, %v), want (%d, true)", want, idx, ok, want)
		}
		own.claim(t, idx)
	}
	if idx, ok := s.Pop(); ok {
		t.Fatalf("Pop on an empty stack returned %d", idx)
	}
	if got := s.PopN(make([]uint32, 4)); got != 0 {
		t.Fatalf("PopN on an empty stack took %d", got)
	}

	// PushN splices a run in order; PopN takes it back from the head.
	s.PushN(nil)
	run := []uint32{3, 9, 1}
	for _, idx := range run {
		own.release(idx)
	}
	s.PushN(run)
	s.Push(7)
	own.release(7)
	buf := make([]uint32, 3)
	if got := s.PopN(buf); got != 3 {
		t.Fatalf("PopN took %d of 4 available, want 3", got)
	}
	for i, want := range []uint32{7, 3, 9} {
		if buf[i] != want {
			t.Fatalf("PopN = %v, want [7 3 9]", buf)
		}
		own.claim(t, buf[i])
	}
	// A PopN larger than the stack takes what is there.
	big := make([]uint32, 8)
	if got := s.PopN(big); got != 1 || big[0] != 1 {
		t.Fatalf("PopN on a one-element stack = %d %v, want 1 [1 ...]", got, big)
	}
	own.claim(t, 1)
	if _, ok := s.Pop(); ok {
		t.Fatal("stack should be empty again")
	}
}

// TestStackConcurrentOwnership is the ABA stress: workers pop (singly and
// in runs), claim what they got, release and push it back. An index
// handed to two owners at once fails its claim; an index lost shows in
// the final drain. Run with -race.
func TestStackConcurrentOwnership(t *testing.T) {
	const n = 64
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	for _, procs := range []int{2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		s := NewStack(n)
		own := make(owners, n)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(w)))
				buf := make([]uint32, 5)
				for i := 0; i < rounds; i++ {
					if r.Intn(3) == 0 {
						k := s.PopN(buf[:1+r.Intn(len(buf))])
						for _, idx := range buf[:k] {
							own.claim(t, idx)
						}
						for _, idx := range buf[:k] {
							own.release(idx)
						}
						s.PushN(buf[:k])
					} else if idx, ok := s.Pop(); ok {
						own.claim(t, idx)
						own.release(idx)
						s.Push(idx)
					}
				}
			}(w)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)

		seen := make([]bool, n)
		for {
			idx, ok := s.Pop()
			if !ok {
				break
			}
			if seen[idx] {
				t.Fatalf("GOMAXPROCS %d: index %d is in the stack twice", procs, idx)
			}
			seen[idx] = true
		}
		for idx, ok := range seen {
			if !ok {
				t.Fatalf("GOMAXPROCS %d: index %d was lost", procs, idx)
			}
		}
	}
}
