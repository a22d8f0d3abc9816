package wal

import (
	"errors"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
)

// TestAppendBatchAsyncStampsAndOrder: a batch staged in one call carries
// consecutive stamps, the returned ticket is the last record's stamp, and
// sequencing preserves the in-batch order.
func TestAppendBatchAsyncStampsAndOrder(t *testing.T) {
	l := backedLog(t)
	pre, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Record{
		{Kind: CommitRec, Txn: "A", Obj: "X"},
		{Kind: CommitRec, Txn: "A", Obj: "Y"},
		{Kind: CommitRec, Txn: "A", Obj: "Z"},
	}
	tk, err := l.AppendBatchAsync(batch)
	if err != nil {
		t.Fatal(err)
	}
	if tk != pre+3 {
		t.Fatalf("batch ticket = %d, want %d (three consecutive stamps after %d)", tk, pre+3, pre)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := logged(t, l)
	if len(recs) != 4 {
		t.Fatalf("log has %d records, want 4", len(recs))
	}
	for i, want := range []string{"X", "Y", "Z"} {
		if got := string(recs[i+1].Obj); got != want {
			t.Fatalf("record %d is for object %s, want %s (batch order not preserved)", i+1, got, want)
		}
	}
	// The PrevLSN chain threads through the batch.
	chain := chainOf(logged(t, l), "A")
	if len(chain) != 4 {
		t.Fatalf("chain length = %d, want 4", len(chain))
	}
	if !l.IsDurable(tk) {
		t.Fatal("batch ticket not durable after flush")
	}
}

// TestAppendBatchAsyncEmptyAndMixed: an empty batch is a no-op returning
// the zero ticket; a batch mixing transactions is staged in order, and each
// record chains to its own transaction's previous record.
func TestAppendBatchAsyncEmptyAndMixed(t *testing.T) {
	l := backedLog(t)
	tk, err := l.AppendBatchAsync(nil)
	if err != nil || tk != 0 {
		t.Fatalf("empty batch = %d, %v; want 0, nil", tk, err)
	}
	if _, err := l.AppendAsync(Record{Kind: Update, Txn: "B", Obj: "Y", Op: adt.DepositOk(1)}); err != nil {
		t.Fatal(err)
	}
	tk, err = l.AppendBatchAsync([]Record{
		{Kind: CommitRec, Txn: "A", Obj: "X"},
		{Kind: CommitRec, Txn: "B", Obj: "Y"},
		{Kind: CommitRec, Txn: "A", Obj: "Z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tk != 4 {
		t.Fatalf("mixed batch ticket = %d, want 4", tk)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		txn  history.TxnID
		obj  history.ObjectID
		prev LSN
	}{{"B", "Y", 0}, {"A", "X", 0}, {"B", "Y", 1}, {"A", "Z", 2}}
	recs := logged(t, l)
	if len(recs) != len(want) {
		t.Fatalf("log has %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		r := recs[i]
		if r.LSN != LSN(i+1) || r.Txn != w.txn || r.Obj != w.obj || r.PrevLSN != w.prev {
			t.Fatalf("record %d = LSN %d %s/%s prev %d; want LSN %d %s/%s prev %d",
				i, r.LSN, r.Txn, r.Obj, r.PrevLSN, i+1, w.txn, w.obj, w.prev)
		}
	}
}

// TestAppendBatchAsyncClosed: a batch racing Close is rejected whole with
// ErrClosed — never a partial stage.
func TestAppendBatchAsyncClosed(t *testing.T) {
	l := backedLog(t)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := l.AppendBatchAsync([]Record{
		{Kind: CommitRec, Txn: "A", Obj: "X"},
		{Kind: CommitRec, Txn: "A", Obj: "Y"},
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("batch on closed log: err = %v, want ErrClosed", err)
	}
	if l.Records() != 0 {
		t.Fatalf("closed log retains %d records, want 0", l.Records())
	}
}

// TestStripeAcquisitionCounting: N AppendAsync calls cost N staging-queue
// lock acquisitions, one AppendBatchAsync of N records costs 1.
func TestStripeAcquisitionCounting(t *testing.T) {
	l := backedLog(t)
	if got := l.stageAcqs.Load(); got != 0 {
		t.Fatalf("fresh log has %d acquisitions", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.stageAcqs.Load(); got != 5 {
		t.Fatalf("after 5 AppendAsync: %d acquisitions, want 5", got)
	}
	batch := make([]Record, 5)
	for i := range batch {
		batch[i] = Record{Kind: CommitRec, Txn: "A", Obj: "X"}
	}
	if _, err := l.AppendBatchAsync(batch); err != nil {
		t.Fatal(err)
	}
	if got := l.stageAcqs.Load(); got != 6 {
		t.Fatalf("after 5-record batch: %d acquisitions, want 6", got)
	}
}

// TestAppendBatchAsyncConsistentCut: records staged in one batch call are
// never split across flush batches — a flush drain sees all or none.
func TestAppendBatchAsyncConsistentCut(t *testing.T) {
	l := backedLog(t)
	const n = 8
	batch := make([]Record, n)
	for i := range batch {
		batch[i] = Record{Kind: CommitRec, Txn: "A", Obj: "X"}
	}
	if _, err := l.AppendBatchAsync(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.flushes.Load() != 1 {
		t.Fatalf("flushes = %d, want 1", l.flushes.Load())
	}
	if l.FlushedRecords() != n {
		t.Fatalf("flushed records = %d, want %d", l.FlushedRecords(), n)
	}
}
