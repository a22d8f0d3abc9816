package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// The last bucket absorbs everything above its lower bound.
	if got := bucketOf(1 << 62); got != histBuckets-1 {
		t.Errorf("bucketOf(1<<62) = %d, want %d", got, histBuckets-1)
	}
}

func TestHistogramRecordSnapshot(t *testing.T) {
	var h Histogram
	vals := []int64{1, 2, 3, 100, 1000, 1000, 1 << 20, -7}
	var sum int64
	for _, v := range vals {
		h.Record(v)
		if v > 0 {
			sum += v
		}
	}
	s := h.Snapshot()
	if s.Count != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d (negatives clamp to 0)", s.Sum, sum)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	// Buckets are sorted ascending and non-empty.
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].UpperBound <= s.Buckets[i-1].UpperBound {
			t.Fatalf("buckets not sorted: %+v", s.Buckets)
		}
	}
}

// TestHistogramMergeAndQuantile: the quantiles of one histogram fed two
// populations (merged) land in the right bucket of each.
func TestHistogramMergeAndQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(10) // bucket upper bound 16
	}
	for i := 0; i < 10; i++ {
		h.Record(100_000) // bucket upper bound 131072
	}
	m := h.Snapshot()
	if m.Count != 110 {
		t.Fatalf("merged count = %d, want 110", m.Count)
	}
	if m.Sum != 100*10+10*100_000 {
		t.Fatalf("merged sum = %d", m.Sum)
	}
	if q := m.Quantile(0.5); q != 16 {
		t.Errorf("p50 = %d, want 16", q)
	}
	if q := m.Quantile(0.99); q != 131072 {
		t.Errorf("p99 = %d, want 131072", q)
	}
	if q := m.Quantile(0); q != 16 {
		t.Errorf("p0 = %d, want 16", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

// TestNilObserverHooksAllocFree is the disabled-path proof: every hook
// on a nil Observer, and the enabled histogram record path, allocate
// nothing.
func TestNilObserverHooksAllocFree(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(1000, func() {
		o.RecordLockWait(1)
		o.RecordWALStage(1)
		o.RecordBarrierWait(1, true)
		o.RecordCommitHold(1)
		o.RecordTxnEnd(1)
		o.RecordFlushBatch(1)
		o.RecordFlushSync(1)
		o.RecordCheckpoint(1, 1)
		if o.SampleTxn(1) != nil {
			t.Fatal("nil observer sampled a txn")
		}
		o.TraceGlobal("x", 0, 1, nil)
	})
	if allocs != 0 {
		t.Fatalf("nil-observer hooks allocate %v/op, want 0", allocs)
	}
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(123) }); allocs != 0 {
		t.Fatalf("Histogram.Record allocates %v/op, want 0", allocs)
	}
	enabled := New(Options{})
	if allocs := testing.AllocsPerRun(1000, func() {
		enabled.RecordLockWait(1)
		enabled.RecordBarrierWait(1, false)
		enabled.RecordTxnEnd(1)
	}); allocs != 0 {
		t.Fatalf("enabled histogram hooks allocate %v/op, want 0", allocs)
	}
}

func TestSamplingDeterministicAndProportional(t *testing.T) {
	const n = 10_000
	count := func(rate float64, seed uint64) int {
		o := New(Options{SampleRate: rate, TraceSeed: seed})
		c := 0
		for seq := int64(0); seq < n; seq++ {
			if o.SampleTxn(seq) != nil {
				c++
			}
		}
		return c
	}
	if got := count(1, 7); got != n {
		t.Fatalf("rate 1 sampled %d/%d", got, n)
	}
	c := count(0.25, 7)
	if c < n/5 || c > n/3 {
		t.Fatalf("rate 0.25 sampled %d/%d, far from a quarter", c, n)
	}
	if c2 := count(0.25, 7); c2 != c {
		t.Fatalf("same seed sampled differently: %d vs %d", c, c2)
	}
	// Tracing off entirely at rate 0.
	o := New(Options{})
	if o.Tracing() || o.SampleTxn(3) != nil || o.Trace() != nil {
		t.Fatal("rate 0 should disable tracing")
	}
}

func TestTracerEventsAndJSON(t *testing.T) {
	o := New(Options{SampleRate: 1, TraceSeed: 1})
	tt := o.SampleTxn(42)
	if tt == nil {
		t.Fatal("rate-1 txn not sampled")
	}
	tt.Instant("begin", 1000, map[string]string{"txn": "t42"})
	tt.Span("block", 2000, 5000, map[string]string{"obj": "obj001", "holder": "t41"})
	tt.Instant("stage", 6000, map[string]string{"ticket": "9"})
	tt.Span("barrier", 7000, 9000, nil)
	tt.Instant("commit", 9500, nil)
	tt.Span("txn", 1000, 9500, map[string]string{"outcome": "commit"})
	tt.Finish()
	tt.Finish() // idempotent
	o.TraceGlobal("checkpoint", 0, 12_000, map[string]string{"objects": "4"})

	sampled, events, dropped := o.Trace().Stats()
	if sampled != 1 || events != 7 || dropped != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 7, 0)", sampled, events, dropped)
	}
	kinds := o.Trace().KindCounts()
	if len(kinds) < 5 {
		t.Fatalf("only %d event kinds: %v", len(kinds), kinds)
	}

	buf, err := json.Marshal(map[string][]TraceEvent{"traceEvents": o.Trace().Events()})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("trace JSON does not load: %v", err)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("round-tripped %d events, want 7", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "i" {
			t.Fatalf("event %q has ph %q", ev.Name, ev.Ph)
		}
	}
	// The block span's duration is microseconds: (5000-2000) ns = 3 us.
	for _, ev := range doc.TraceEvents {
		if ev.Name == "block" && ev.Dur != 3 {
			t.Fatalf("block dur = %v us, want 3", ev.Dur)
		}
	}
}

func TestTracerCapDropsNotGrows(t *testing.T) {
	o := New(Options{SampleRate: 1, TraceMaxEvents: 3})
	tt := o.SampleTxn(1)
	for i := 0; i < 5; i++ {
		tt.Instant("e", int64(i), nil)
	}
	tt.Finish()
	o.TraceGlobal("g", 0, 1, nil)
	sampled, events, dropped := o.Trace().Stats()
	if events != 3 || dropped != 3 || sampled != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 3, 3)", sampled, events, dropped)
	}
}

// TestSnapshotWriters: a snapshot round-trips through encoding/json with
// its labels, counters, phase histograms and trace stats intact.
func TestSnapshotWriters(t *testing.T) {
	o := New(Options{SampleRate: 1})
	o.RecordLockWait(1500)
	o.RecordTxnEnd(40_000)
	tt := o.SampleTxn(1)
	tt.Instant("begin", 0, nil)
	tt.Finish()
	sampled, events, _ := o.Trace().Stats()
	s := Snapshot{
		Shards: 8,
		Engine: EngineCounters{Begins: 10, Commits: 9, Aborts: 1, CommitHoldNS: 900, MeanCommitHoldNS: 100},
		WAL:    WALStats{Flushes: 3, Records: 42, DurableLSN: 42},
		Phases: o.Phases(),
		Trace:  &TraceStats{Sampled: sampled, Events: events, Kinds: len(o.Trace().KindCounts())},
	}
	jbuf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jbuf, &back); err != nil {
		t.Fatalf("snapshot JSON does not load: %v", err)
	}
	if back.Engine.Commits != 9 || back.Phases == nil || back.Phases.LockWait.Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Shards != 8 || back.WAL.DurableLSN != 42 || back.Trace == nil || back.Trace.Sampled != 1 {
		t.Fatalf("round trip lost labels, WAL or trace stats: %+v", back)
	}
}
