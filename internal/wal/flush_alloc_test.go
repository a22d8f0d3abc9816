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
// per-record allocation: a 50-record batch costs what a 5-record batch
// does — the staged batch's one slice — because the frame, the flat record
// copy and the drained batch reuse the log's flush buffers.
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
	if a5 > 1 || a50 != a5 {
		t.Fatalf("allocs per flush round: %v for 5 records, %v for 50; want the same, at most 1", a5, a50)
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
