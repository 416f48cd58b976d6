package telemetry

import (
	"sync"
	"testing"
)

// exerciseRing is the one test of the ring mechanics. The tracer, flight
// and audit tests each run it against their instantiation: write and
// drain go through the recorder's exported surface, id reads back which
// writer wrote a record and its sequence number. r must be enabled at
// perShard records and empty; it is left disabled.
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
	// shard, and every writer's survivors are its newest, in order.
	got := drain()
	shards := writers
	if len(r.shards) < shards {
		shards = len(r.shards)
	}
	if len(got) != shards*perShard {
		t.Fatalf("ring kept %d records, want %d shards x %d", len(got), shards, perShard)
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
		if ts, prev := rec.stamp(), got[i-1].stamp(); ts < prev || (ts == prev && shards == writers && w < pw) {
			t.Fatalf("drain not sorted by (TS, worker) at %d", i)
		}
	}
	for w, seqs := range kept {
		if shards == writers && len(seqs) != perShard {
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
