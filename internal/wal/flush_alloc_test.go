package wal

import "testing"

// Per-layer cost of the durable flush: stage one transaction's batch of n
// records, then Flush it through a segmented backend (encode once, one
// write, one fsync).

// segFlushRound opens a log over a fresh segmented backend in dir and
// returns one flush round of an n-record batch, plus the log to close.
func segFlushRound(tb testing.TB, dir string, n int) (*Log, func()) {
	tb.Helper()
	b, err := CreateSegmentedBackend(dir, SegmentConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = benchRecord()
	}
	return l, func() {
		if _, err := l.AppendBatchAsync(recs); err != nil {
			tb.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSegmentedFlushAllocsPerBatch pins the steady-state flush to no
// allocation at all: staging copies the batch into the staging queue, and
// the queue, its spare and the frame are the log's reused flush buffers.
func TestSegmentedFlushAllocsPerBatch(t *testing.T) {
	allocs := func(n int) float64 {
		l, round := segFlushRound(t, t.TempDir(), n)
		defer l.Close()
		round() // first batch: creates the segment, sizes the buffers
		if err := l.Err(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, round)
	}
	a5, a50 := allocs(5), allocs(50)
	if a5 > 0 || a50 != a5 {
		t.Fatalf("allocs per flush round: %v for 5 records, %v for 50; want 0", a5, a50)
	}
}

// TestStageFlushAllocFree pins the staging path of a durable log: n
// AppendAsync calls, one AppendBatchAsync and the Flush that sequences
// them allocate nothing once the log's buffers are sized.
func TestStageFlushAllocFree(t *testing.T) {
	l := backedLog(t)
	defer l.Close()
	const n = 4
	rec := benchRecord()
	batch := []Record{benchRecord(), benchRecord(), benchRecord()}
	round := func() {
		for i := 0; i < n; i++ {
			if _, err := l.AppendAsync(rec); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.AppendBatchAsync(batch); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	round() // sizes the staging queue, its spare and the frame
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("allocs per stage-and-flush round of %d records: %v, want 0", n+len(batch), a)
	}
}

func BenchmarkSegmentedFlush5(b *testing.B) {
	l, round := segFlushRound(b, b.TempDir(), 5)
	defer l.Close()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
