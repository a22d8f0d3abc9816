package txn

import (
	"fmt"
	"testing"

	"repro/internal/history"
)

// TestBeginNames: transaction IDs are T plus the Begin sequence,
// zero-padded to four digits and growing past them.
func TestBeginNames(t *testing.T) {
	e := NewEngine(Options{})
	if id := e.Begin().ID(); id != "T0001" {
		t.Fatalf("first Begin = %s, want T0001", id)
	}
	e.txnSeq.Store(9998)
	for _, want := range []history.TxnID{"T9999", "T10000"} {
		if id := e.Begin().ID(); id != want {
			t.Fatalf("Begin = %s, want %s", id, want)
		}
	}
}

// TestSeqIDMatchesSprintf: seqID is fmt's "%s%04d" for every sequence
// number around each padding width, for transactions and checkpoints.
func TestSeqIDMatchesSprintf(t *testing.T) {
	for _, prefix := range []string{"T", "CKPT"} {
		for _, n := range []int64{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456, 1 << 62} {
			if got, want := seqID(prefix, n), history.TxnID(fmt.Sprintf("%s%04d", prefix, n)); got != want {
				t.Errorf("seqID(%q, %d) = %s, want %s", prefix, n, got, want)
			}
		}
	}
}

func BenchmarkBegin(b *testing.B) {
	e := NewEngine(Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Begin()
	}
}
