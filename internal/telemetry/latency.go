// Latency attribution: per-worker log2-bucketed histograms of the time
// an admission spends in each cascade stage. The paper's economics
// argument (§5) is about *where* a detector's nanoseconds go — a cheap
// filter is only cheap if its misses are fast and its hits don't pay
// the filter again — so the histograms are keyed by pipeline stage, not
// by detector: signature filter, optimistic index, precise check, shard
// rendezvous, batch publish/probe, commit/release.
//
// The recording discipline mirrors the event tracer: off by default
// (LatClock is one atomic load returning 0, and a 0 start mark makes
// every later StageObserve a no-op), and allocation-free when on. A
// stage observation is two atomic adds into a per-worker shard of a
// fixed [stage][bucket] array; buckets are powers of two of
// nanoseconds, so bucketing is one bits.Len64. Export merges the shards
// lock-free (plain atomic loads, no stop-the-world) into one histogram
// per stage plus an interpolated percentile table.
//
// The lock and logged-gatekeeper paths observe whole transactions, one
// in observeEvery, chosen by id (Observed): their start marks come from
// TxClock, which is 0 for a transaction that is not observed, so such a
// transaction reads no clock at all.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Stage identifies one admission-pipeline stage boundary.
type Stage uint8

// Pipeline stages, in cascade order. StageCommit covers commit/release
// (slot retirement, undo-log disposal) regardless of which detector
// admitted the transaction.
const (
	StageSigFilter    Stage = iota // stage 1: conflict-signature filter publish+probe
	StageOptIndex                  // stage 2: optimistic seqlock slot-index scan
	StagePrecise                   // stage 3: precise compiled pair check
	StageRendezvous                // cross-shard ticket rendezvous (sharded router)
	StageBatchPublish              // batched admission: group publish phase
	StageBatchProbe                // batched admission: combined probe + screen phase
	StageCommit                    // commit/release: slot retirement + undo disposal
	NumStages
)

// stageNames are the export spellings, index-aligned with the constants.
var stageNames = [NumStages]string{
	"sig_filter", "opt_index", "precise", "rendezvous",
	"batch_publish", "batch_probe", "commit_release",
}

// String returns the export spelling of the stage.
func (s Stage) String() string { return enumName(stageNames[:], s) }

const (
	// latShards is the number of per-worker histogram shards. Worker IDs
	// are masked into the range, like the tracer's rings: with fewer
	// than 64 workers every worker owns its shard and the atomic adds
	// never contend.
	latShards = 64

	// latBuckets is the number of log2(ns) buckets per stage. Bucket 0
	// holds sub-nanosecond (clamped) durations; bucket k holds
	// [2^(k-1), 2^k) ns, so 40 buckets reach ~9 minutes — far beyond
	// any admission — and the top bucket absorbs the rest.
	latBuckets = 40
)

// latShard is one worker's histogram block, padded so neighbouring
// workers' adds don't share cache lines.
type latShard struct {
	counts [NumStages][latBuckets]atomic.Uint64
	sums   [NumStages]atomic.Uint64
	_      [64]byte
}

// latencyRec is the process-wide latency recorder. The shard arrays are
// fixed-size (no buffers to allocate or free), so enable/disable only
// toggles the gate and zeroes counters.
type latencyRec struct {
	enabled atomic.Bool
	shards  [latShards]latShard
}

var lr latencyRec

// latBase anchors the monotonic stage clock. time.Since reads the
// runtime's monotonic clock without allocating.
var latBase = time.Now()

// EnableLatency zeroes the stage histograms and starts recording.
func EnableLatency() {
	lr.enabled.Store(false)
	for i := range lr.shards {
		sh := &lr.shards[i]
		for s := 0; s < int(NumStages); s++ {
			sh.sums[s].Store(0)
			for b := 0; b < latBuckets; b++ {
				sh.counts[s][b].Store(0)
			}
		}
	}
	lr.enabled.Store(true)
}

// DisableLatency stops recording. The histograms keep their counts
// until the next EnableLatency, so a snapshot after disabling still
// sees the run.
func DisableLatency() { lr.enabled.Store(false) }

// LatClock returns a start mark for stage timing: 0 when recording is
// off (the whole instrumentation collapses to this one atomic load),
// otherwise nanoseconds on the monotonic clock.
func LatClock() int64 {
	if !lr.enabled.Load() {
		return 0
	}
	return int64(time.Since(latBase))
}

// observeEvery is the sampling period of whole-transaction observation:
// the stage histograms and flight records of the lock and logged
// gatekeeper paths cover one transaction in observeEvery.
const observeEvery = 8

// Observed reports whether transaction tx is one the stage histograms
// and the flight recorder observe: tx % observeEvery == 0. The rule is
// the event trace's sampling rule, so `-sample 8` traces exactly the
// observed transactions.
func Observed(tx uint64) bool { return tx%observeEvery == 0 }

// TxClock is LatClock for an admission or release of transaction tx: 0
// unless latency recording is on and tx is Observed. Off, it costs at
// most LatClock's one atomic load.
func TxClock(tx uint64) int64 {
	if !Observed(tx) {
		return 0
	}
	return LatClock()
}

// Since returns the nanoseconds from a start mark to now, 0 for a 0
// mark. It reads the clock whether or not recording is still on, so an
// admission whose recording is switched off midway still measures its
// whole duration.
func Since(mark int64) int64 {
	if mark == 0 {
		return 0
	}
	return int64(time.Since(latBase)) - mark
}

// StageObserve records the duration from mark start to now against the
// stage and returns the new mark, so consecutive stages chain:
//
//	t := telemetry.LatClock()
//	... stage 1 ...
//	t = telemetry.StageObserve(w, telemetry.StageSigFilter, t)
//	... stage 2 ...
//	t = telemetry.StageObserve(w, telemetry.StageOptIndex, t)
//
// A 0 start (recording off at LatClock time) is a no-op returning 0.
//
// The start mark is the gate: unlike Emit or StageRecord, call sites
// need no enabled-check of their own (the arguments are scalars already
// in hand, and the chain collapses to compare-and-return when off), so
// this is deliberately not a //commvet:observation.
func StageObserve(worker int, st Stage, start int64) int64 {
	if start == 0 {
		return 0
	}
	now := int64(time.Since(latBase))
	StageRecord(worker, st, now-start)
	return now
}

// StageRecord adds one duration (nanoseconds) to a stage histogram
// directly, for call sites that measured the interval themselves.
//
//commvet:observation
func StageRecord(worker int, st Stage, d int64) {
	if d < 0 {
		d = 0
	}
	sh := &lr.shards[worker&(latShards-1)]
	sh.counts[st][latBucket(uint64(d))].Add(1)
	sh.sums[st].Add(uint64(d))
}

// latBucket maps a duration to its log2 bucket: 0ns → 0, and
// [2^(k-1), 2^k) → k, clamped to the top bucket.
func latBucket(d uint64) int {
	b := bits.Len64(d)
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

// --- Snapshot and percentiles --------------------------------------------

// LatBucketCount is one non-empty histogram bucket: Count observations
// at most LeNS nanoseconds (upper bound inclusive, 2^k - 1).
type LatBucketCount struct {
	LeNS  uint64 `json:"le_ns"`
	Count uint64 `json:"count"`
}

// StageLatency is one stage's merged histogram and percentile row.
type StageLatency struct {
	Stage   string           `json:"stage"`
	Count   uint64           `json:"count"`
	SumNS   uint64           `json:"sum_ns"`
	P50NS   float64          `json:"p50_ns"`
	P90NS   float64          `json:"p90_ns"`
	P99NS   float64          `json:"p99_ns"`
	P999NS  float64          `json:"p999_ns"`
	Buckets []LatBucketCount `json:"buckets,omitempty"`
}

// LatencySnapshot is the merged view of every stage histogram, for the
// percentile endpoints and the flightrec subcommand.
type LatencySnapshot struct {
	Enabled bool           `json:"enabled"`
	Stages  []StageLatency `json:"stages"`
}

// mergeStage sums one stage's histogram across worker shards with plain
// atomic loads — no locks, no quiescence; the result is the same
// monitoring-grade cut as the counter snapshots.
func mergeStage(st Stage) (buckets [latBuckets]uint64, count, sum uint64) {
	for i := range lr.shards {
		sh := &lr.shards[i]
		sum += sh.sums[st].Load()
		for b := 0; b < latBuckets; b++ {
			c := sh.counts[st][b].Load()
			buckets[b] += c
			count += c
		}
	}
	return
}

// latQuantile interpolates quantile q from a log2 histogram. Within the
// bucket that crosses the target rank the interpolation is geometric
// (the bucket spans one octave, so equal log-steps are the natural
// prior), matching how Prometheus-style consumers read log histograms.
func latQuantile(buckets *[latBuckets]uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	target := q * float64(count)
	cum := 0.0
	for b := 0; b < latBuckets; b++ {
		c := float64(buckets[b])
		if c == 0 {
			continue
		}
		if cum+c >= target {
			frac := (target - cum) / c
			if b == 0 {
				return 0
			}
			lo := math.Exp2(float64(b - 1)) // bucket b spans [2^(b-1), 2^b)
			return lo * math.Exp2(frac)
		}
		cum += c
	}
	return math.Exp2(float64(latBuckets - 1))
}

// SnapshotLatency merges the per-worker histograms into one row per
// stage (stages with no observations are omitted).
func SnapshotLatency() LatencySnapshot {
	s := LatencySnapshot{Enabled: lr.enabled.Load()}
	for st := Stage(0); st < NumStages; st++ {
		buckets, count, sum := mergeStage(st)
		if count == 0 {
			continue
		}
		row := StageLatency{
			Stage:  st.String(),
			Count:  count,
			SumNS:  sum,
			P50NS:  latQuantile(&buckets, count, 0.50),
			P90NS:  latQuantile(&buckets, count, 0.90),
			P99NS:  latQuantile(&buckets, count, 0.99),
			P999NS: latQuantile(&buckets, count, 0.999),
		}
		for b := 0; b < latBuckets; b++ {
			if buckets[b] != 0 {
				le := uint64(1)<<uint(b) - 1 // bucket b's inclusive upper bound
				row.Buckets = append(row.Buckets, LatBucketCount{LeNS: le, Count: buckets[b]})
			}
		}
		s.Stages = append(s.Stages, row)
	}
	return s
}
