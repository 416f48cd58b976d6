package telemetry

import (
	"math"
	"sync"
	"testing"
)

// exerciseRing is the one test of the ring mechanics. The tracer and
// flight tests each run it against their instantiation: write and drain
// go through the recorder's exported surface, id reads back which writer
// wrote a record and its sequence number. r must be enabled at perShard
// records and empty; it is left disabled.
func exerciseRing[T stamped](t *testing.T, r *ring[T], perShard int,
	write func(writer, seq int), drain func() []T, id func(T) (writer, seq int)) {
	t.Helper()
	const writers = 2
	perWriter := 3*perShard + 5

	// Two writers against a concurrent drain: the -race proof.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < perWriter; seq++ {
				write(w, seq)
			}
		}(w)
	}
	stop, drained := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			default:
				drain()
				r.dropped()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-drained

	// Wrap-around keeps exactly the newest perShard records of each
	// writer's shard, and every writer's survivors are its newest, in
	// order.
	got := drain()
	if len(got) != writers*perShard {
		t.Fatalf("ring kept %d records, want %d shards x %d", len(got), writers, perShard)
	}
	if want := uint64(writers*perWriter - len(got)); r.dropped() != want {
		t.Fatalf("dropped = %d, want written - kept = %d", r.dropped(), want)
	}
	kept := map[int][]int{}
	for i, rec := range got {
		w, seq := id(rec)
		kept[w] = append(kept[w], seq)
		if i == 0 {
			continue
		}
		pw, _ := id(got[i-1])
		if ts, prev := rec.stamp(), got[i-1].stamp(); ts < prev || (ts == prev && w < pw) {
			t.Fatalf("drain not sorted by (TS, worker) at %d", i)
		}
	}
	for w, seqs := range kept {
		if len(seqs) != perShard {
			t.Fatalf("writer %d kept %d records, want %d", w, len(seqs), perShard)
		}
		for i, seq := range seqs {
			if want := perWriter - len(seqs) + i; seq != want {
				t.Fatalf("writer %d kept seq %d at %d, want %d (the newest window)", w, seq, i, want)
			}
		}
	}

	// Disabled, a put writes nothing.
	r.disable()
	write(0, 0)
	if n := len(drain()); n != 0 || r.dropped() != 0 {
		t.Fatalf("disabled ring holds %d records, %d dropped", n, r.dropped())
	}
}

// A ring capacity rounds up to a power of two for every int: doubling
// past the largest one used to overflow to 0 and never return.
func TestPow2AtLeastTerminates(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{math.MinInt, 1}, {0, 1}, {1, 1}, {2, 2}, {5, 8}, {1 << 14, 1 << 14},
		{1<<62 - 1, 1 << 62}, {1 << 62, 1 << 62}, {1<<62 + 1, 1 << 62}, {math.MaxInt, 1 << 62},
	} {
		if got := pow2AtLeast(tc.n); got != tc.want {
			t.Errorf("pow2AtLeast(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
