package wal

import (
	"errors"
	"testing"

	"repro/internal/adt"
)

// TestSinkStampsAndRetainsNothing pins the contract of a log with no
// backend: appends keep their closing check and return consecutive stamps
// (a batch may mix transactions), the records are counted and a discipline
// marker is remembered, but nothing is sequenced or retained, and no
// barrier ever waits.
func TestSinkStampsAndRetainsNothing(t *testing.T) {
	// The subtest names the one flush mode: barriers lead every round.
	t.Run("sync", func(t *testing.T) {
		l, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if l.Durable() {
			t.Fatal("a log with no backend reports Durable")
		}
		tk, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
		if err != nil || tk != 1 {
			t.Fatalf("AppendAsync = (%d, %v), want (1, nil)", tk, err)
		}
		tk, err = l.AppendBatchAsync([]Record{
			{Kind: CommitRec, Txn: "A", Obj: "X"},
			{Kind: CommitRec, Txn: "A", Obj: "Y"},
		})
		if err != nil || tk != 3 {
			t.Fatalf("AppendBatchAsync = (%d, %v), want (3, nil): the last of two consecutive stamps", tk, err)
		}
		tk, err = l.AppendBatchAsync([]Record{
			{Kind: CommitRec, Txn: "A", Obj: "X"},
			{Kind: CommitRec, Txn: "B", Obj: "Y"},
		})
		if err != nil || tk != 5 {
			t.Fatalf("mixed-transaction AppendBatchAsync = (%d, %v), want (5, nil)", tk, err)
		}
		if tk, err = l.AppendAsync(DisciplineMarker(DisciplineRedo)); err != nil || tk != 6 {
			t.Fatalf("marker AppendAsync = (%d, %v), want (6, nil)", tk, err)
		}
		if got := l.Discipline(); got != DisciplineRedo {
			t.Fatalf("Discipline = %q, want %q", got, DisciplineRedo)
		}
		if lsn := l.Append(Record{Kind: AbortRec, Txn: "B", Obj: "X"}); lsn != 0 {
			t.Fatalf("Append = %d, want the nil LSN (a sink assigns none)", lsn)
		}
		if err := l.Flush(); err != nil {
			t.Fatalf("Flush = %v", err)
		}
		if !l.IsDurable(7) {
			t.Fatal("a sink's ticket is not durable")
		}
		if err := l.WaitDurable(7); err != nil {
			t.Fatalf("WaitDurable = %v", err)
		}
		s := l.Stats()
		want := Stats{FlushedRecords: 7, Discipline: DisciplineRedo}
		if s != want {
			t.Fatalf("Stats = %+v, want %+v", s, want)
		}
		if n := l.Records(); n != 0 {
			t.Fatalf("Records = %d, want 0", n)
		}
		if recs := l.Snapshot(); len(recs) != 0 {
			t.Fatalf("Snapshot = %v, want empty", recs)
		}
		if chain := l.TxnChain("A"); len(chain) != 0 {
			t.Fatalf("TxnChain(A) = %v, want empty", chain)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close = %v", err)
		}
		if _, err := l.AppendAsync(Record{Kind: Update, Txn: "C", Obj: "X"}); !errors.Is(err, ErrClosed) {
			t.Fatalf("AppendAsync after Close = %v, want ErrClosed", err)
		}
		if _, err := l.AppendBatchAsync([]Record{{Kind: CommitRec, Txn: "C", Obj: "X"}}); !errors.Is(err, ErrClosed) {
			t.Fatalf("AppendBatchAsync after Close = %v, want ErrClosed", err)
		}
		if err := l.Flush(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Flush after Close = %v, want ErrClosed", err)
		}
		if got := l.FlushedRecords(); got != 7 {
			t.Fatalf("FlushedRecords after rejected appends = %d, want 7", got)
		}
	})
}

// TestSinkAppendFlushAllocFree: the in-memory engine's per-record log cost
// is one stamp and one count — an append plus a flush barrier allocates
// nothing.
func TestSinkAppendFlushAllocFree(t *testing.T) {
	l := New()
	rec := Record{Kind: Update, Txn: "T0001", Obj: "X", Op: adt.DepositOk(1)}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := l.AppendAsync(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendAsync+Flush on a sink: %v allocs/op, want 0", allocs)
	}
}
