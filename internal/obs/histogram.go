package obs

import (
	"math/bits"
	"sync/atomic"
)

const (
	// histBuckets is the bucket count: bucket 0 holds values <= 0 (and
	// 1), bucket i holds [2^(i-1), 2^i), and the last bucket absorbs
	// everything above — 2^46 ns is ~20 hours, beyond any phase this
	// engine measures.
	histBuckets = 48
	// histShards spreads recording across cache lines so concurrent
	// committers do not serialize on one counter word. Power of two.
	histShards = 4
)

// Histogram is a lock-free, sharded, power-of-two-bucket histogram.
// Record is wait-free (three atomic adds) and allocation-free; Snapshot
// merges the shards into one immutable view. The zero value is ready to
// use. Values are nanoseconds for latency histograms and plain counts
// for size histograms — the type does not care.
//
// Concurrent snapshots are approximate (counts race with in-flight
// Records shard by shard); at quiescence they are exact. That is the
// same contract the engine's atomic counters already carry.
type Histogram struct {
	shards [histShards]histShard
}

// histShard pads to its own cache lines via the bucket array itself;
// recording picks a shard from a hash of the value so the choice is
// deterministic (no RNG, no per-CPU state) yet spreads distinct values.
type histShard struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a value to its power-of-two bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Record adds one observation. Negative values clamp to bucket 0 with a
// zero sum contribution — a defensive guard; the engine never reports
// negative durations.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	// Fibonacci-hash the value to a shard: deterministic, and distinct
	// magnitudes land on distinct shards often enough to split traffic.
	sh := &h.shards[(uint64(v)*0x9E3779B97F4A7C15)>>(64-2)]
	sh.count.Add(1)
	sh.sum.Add(v)
	sh.buckets[bucketOf(v)].Add(1)
}

// BucketCount is one non-empty histogram bucket: Count observations in
// [UpperBound/2, UpperBound), with the first bucket covering (-inf, 2)
// and the last covering everything above its lower bound.
type BucketCount struct {
	UpperBound int64 `json:"upper"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is an immutable merged view of a Histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// upperBound returns bucket i's exclusive upper bound.
func upperBound(i int) int64 {
	if i >= 63 {
		return int64(1)<<62 + (int64(1)<<62 - 1) // MaxInt64 without overflow
	}
	return int64(1) << uint(i)
}

// Snapshot merges the shards into one view, dropping empty buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var merged [histBuckets]int64
	var s HistogramSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		s.Count += sh.count.Load()
		s.Sum += sh.sum.Load()
		for b := range sh.buckets {
			merged[b] += sh.buckets[b].Load()
		}
	}
	for b, c := range merged {
		if c != 0 {
			s.Buckets = append(s.Buckets, BucketCount{UpperBound: upperBound(b), Count: c})
		}
	}
	return s
}

// Mean returns the arithmetic mean of the recorded values (0 when
// empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (nearest-rank over bucket counts), for q in [0, 1]. The
// answer is an upper bound with power-of-two resolution — exactly what
// a latency histogram can honestly claim.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count-1)) + 1
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.UpperBound
		}
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}

// PhaseSnapshot is every engine-phase histogram, merged, as one
// JSON-encodable block of the unified snapshot.
type PhaseSnapshot struct {
	LockWait    HistogramSnapshot `json:"lock_wait_ns"`
	WALStage    HistogramSnapshot `json:"wal_stage_ns"`
	BarrierWait HistogramSnapshot `json:"barrier_wait_ns"`
	StallWait   HistogramSnapshot `json:"stall_wait_ns"`
	CommitHold  HistogramSnapshot `json:"commit_hold_ns"`
	TxnE2E      HistogramSnapshot `json:"txn_e2e_ns"`
	FlushBatch  HistogramSnapshot `json:"flush_batch_records"`
	FlushSync   HistogramSnapshot `json:"flush_sync_ns"`
	CkptCapture HistogramSnapshot `json:"ckpt_capture_ns"`
	CkptSave    HistogramSnapshot `json:"ckpt_save_ns"`
}
