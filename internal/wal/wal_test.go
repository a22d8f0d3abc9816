package wal

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
)

// backedLog opens a log over a zero-latency backend that keeps what it is
// written (memBackend), for the tests that read the records back through
// logged. A log with no backend is a sink and sequences nothing.
func backedLog(t testing.TB) *Log {
	t.Helper()
	l, err := Open(Config{Backend: &memBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	l := backedLog(t)
	a := appendDurable(t, l, Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	b := appendDurable(t, l, Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(2)})
	if a != 1 || b != 2 {
		t.Fatalf("LSNs = %d, %d", a, b)
	}
	if l.Records() != 2 {
		t.Fatalf("Records = %d", l.Records())
	}
}

// TestTxnChainNewestFirst: each record chains by PrevLSN to its
// transaction's previous record, so A's chain, walked back from its newest
// record in the backend's copy, is newest-first and skips B's record; every
// record sits at its ticket LSN.
func TestTxnChainNewestFirst(t *testing.T) {
	l := backedLog(t)
	a1 := appendDurable(t, l, Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	appendDurable(t, l, Record{Kind: Update, Txn: "B", Obj: "X", Op: adt.DepositOk(9)})
	a2 := appendDurable(t, l, Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(2)})
	a3 := appendDurable(t, l, Record{Kind: Update, Txn: "A", Obj: "Y", Op: adt.DepositOk(3)})
	chain := chainOf(logged(t, l), "A")
	if len(chain) != 3 {
		t.Fatalf("chain length = %d", len(chain))
	}
	if chain[0].Op != adt.DepositOk(3) || chain[1].Op != adt.DepositOk(2) || chain[2].Op != adt.DepositOk(1) {
		t.Fatalf("chain order wrong: %v", chain)
	}
	if chain[0].LSN != a3 || chain[1].LSN != a2 || chain[2].LSN != a1 {
		t.Fatalf("chain LSNs %d, %d, %d; ticket LSNs %d, %d, %d",
			chain[0].LSN, chain[1].LSN, chain[2].LSN, a3, a2, a1)
	}
	if chain[2].PrevLSN != 0 {
		t.Errorf("first record PrevLSN = %d, want 0", chain[2].PrevLSN)
	}
}

// TestGetAndLastLSN: a durable append's ticket LSN names the record a reader
// finds in the backend's copy and at the head of the transaction's chain.
func TestGetAndLastLSN(t *testing.T) {
	l := backedLog(t)
	if _, ok := recordAt(logged(t, l), 1); ok {
		t.Error("an empty log holds no record at LSN 1")
	}
	if lastLSN(logged(t, l), "A") != 0 {
		t.Error("an unknown txn has no chain")
	}
	lsn := appendDurable(t, l, Record{Kind: CommitRec, Txn: "A", Obj: "X"})
	r, ok := recordAt(logged(t, l), lsn)
	if !ok || r.Kind != CommitRec || r.Txn != "A" {
		t.Fatalf("record at LSN %d = %v, %v", lsn, r, ok)
	}
	if lastLSN(logged(t, l), "A") != lsn {
		t.Errorf("chain head of A = %d, want %d", lastLSN(logged(t, l), "A"), lsn)
	}
	if _, ok := recordAt(logged(t, l), 0); ok {
		t.Error("a record at the nil LSN")
	}
}

func TestConcurrentAppends(t *testing.T) {
	l := backedLog(t)
	const n = 50
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := history.TxnID(rune('A' + g))
			for i := 0; i < n; i++ {
				appendDurable(t, l, Record{Kind: Update, Txn: txn, Obj: "X", Op: adt.DepositOk(1)})
			}
		}(g)
	}
	wg.Wait()
	if l.Records() != 4*n {
		t.Fatalf("Records = %d, want %d", l.Records(), 4*n)
	}
	// LSNs are dense and unique; every chain has n records.
	seen := make(map[LSN]bool)
	for _, r := range logged(t, l) {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
	}
	for g := 0; g < 4; g++ {
		txn := history.TxnID(rune('A' + g))
		if got := len(chainOf(logged(t, l), txn)); got != n {
			t.Errorf("chain(%s) = %d, want %d", txn, got, n)
		}
	}
}

// TestFlushBatchIsConsistentCut: a record staged after another one (here:
// later in program order, by another transaction) must never be sequenced
// into an earlier batch — it must receive a larger LSN even with a rival
// barrier racing the two stage calls. This is the ticket-prefix
// (consistent cut) property of the batch drain; crash recovery's
// presumed-abort argument relies on it, because a batch boundary is the
// unit of durability loss and must not separate a commit record from a
// causally later one.
func TestFlushBatchIsConsistentCut(t *testing.T) {
	l := backedLog(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l.Flush()
			}
		}
	}()
	// Each record of a pair belongs to its own transaction.
	const pairs = 400
	first := func(i int) history.TxnID { return history.TxnID(fmt.Sprintf("A%03d", i)) }
	second := func(i int) history.TxnID { return history.TxnID(fmt.Sprintf("B%03d", i)) }
	for i := 0; i < pairs; i++ {
		if _, err := l.AppendAsync(Record{Kind: Update, Txn: first(i), Obj: "X", Op: adt.DepositOk(1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendAsync(Record{Kind: TxnCommitRec, Txn: second(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	l.Flush()
	lsnOf := make(map[history.TxnID]LSN)
	for _, r := range logged(t, l) {
		lsnOf[r.Txn] = r.LSN
	}
	for i := 0; i < pairs; i++ {
		a, b := lsnOf[first(i)], lsnOf[second(i)]
		if a == 0 || b == 0 {
			t.Fatalf("pair %d: record never sequenced (%d, %d)", i, a, b)
		}
		if a >= b {
			t.Fatalf("pair %d: staged-earlier record got LSN %d >= %d — batch was not a consistent cut",
				i, a, b)
		}
	}
}

func TestRecordKindString(t *testing.T) {
	kinds := map[RecordKind]string{
		Update: "update", CommitRec: "commit", AbortRec: "abort", CompensationRec: "clr",
		TxnCommitRec: "txn-commit",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestAppendAsyncStagesUntilFlush(t *testing.T) {
	l := backedLog(t)
	l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	l.AppendAsync(Record{Kind: Update, Txn: "B", Obj: "Y", Op: adt.DepositOk(2)})
	l.AppendAsync(Record{Kind: CommitRec, Txn: "A", Obj: "X"})
	l.Flush()
	if got := l.flushes.Load(); got != 1 {
		t.Fatalf("Flushes = %d, want 1 batch", got)
	}
	if got := l.FlushedRecords(); got != 3 {
		t.Fatalf("FlushedRecords = %d, want 3", got)
	}
	// The batch got one contiguous LSN range.
	recs := logged(t, l)
	if len(recs) != 3 {
		t.Fatalf("Records = %d", len(recs))
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	// A's chain: commit -> update, in stage order.
	chain := chainOf(logged(t, l), "A")
	if len(chain) != 2 || chain[0].Kind != CommitRec || chain[1].Kind != Update {
		t.Fatalf("chain = %v", chain)
	}
	if chain[1].PrevLSN != 0 || chain[0].PrevLSN != chain[1].LSN {
		t.Fatalf("chain links wrong: %v", chain)
	}
}

func TestGroupCommitBatchesConcurrentAppenders(t *testing.T) {
	l := backedLog(t)
	const gs = 8
	const per = 40
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := history.TxnID(rune('A' + g))
			for i := 0; i < per; i++ {
				l.AppendAsync(Record{Kind: Update, Txn: txn, Obj: "X", Op: adt.DepositOk(1)})
			}
			l.Flush()
		}(g)
	}
	wg.Wait()
	if l.Records() != gs*per {
		t.Fatalf("Records = %d, want %d", l.Records(), gs*per)
	}
	// Group commit: each goroutine flushes once, so there are at most gs
	// non-empty batches for gs*per records (an empty drain is not counted),
	// and every record is sequenced exactly once.
	if f := l.flushes.Load(); f < 1 || f > int64(gs) {
		t.Fatalf("flushes = %d, want 1..%d (batching broken)", f, gs)
	}
	if l.FlushedRecords() != int64(gs*per) {
		t.Fatalf("flushed = %d, want %d", l.FlushedRecords(), gs*per)
	}
	seen := make(map[LSN]bool)
	for _, r := range logged(t, l) {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
	}
	// Per-transaction chains are complete and in stage order.
	for g := 0; g < gs; g++ {
		txn := history.TxnID(rune('A' + g))
		chain := chainOf(logged(t, l), txn)
		if len(chain) != per {
			t.Fatalf("chain(%s) = %d, want %d", txn, len(chain), per)
		}
		for i := 1; i < len(chain); i++ {
			if chain[i].LSN >= chain[i-1].LSN {
				t.Fatalf("chain(%s) not newest-first at %d", txn, i)
			}
		}
	}
}
