package wal

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/spec"
)

// TestAsyncFlushIsCommitBarrier: Flush returns only after everything
// staged with AppendAsync before the call is sequenced and synced to the
// backend.
func TestAsyncFlushIsCommitBarrier(t *testing.T) {
	b := &countingBackend{}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	l.AppendAsync(Record{Kind: CommitRec, Txn: "A", Obj: "X"})
	l.Flush()
	if b.recs.Load() < 2 {
		t.Fatalf("after Flush ack only %d records synced, want >= 2", b.recs.Load())
	}
	if l.Records() != 2 {
		t.Fatalf("Records = %d", l.Records())
	}
}

// TestAsyncAppendReturnsLSN: Append — stage, then a barrier — returns the
// LSN the barrier's round assigned.
func TestAsyncAppendReturnsLSN(t *testing.T) {
	l, err := Open(Config{Backend: &countingBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a := l.Append(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	b := l.Append(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(2)})
	if a != 1 || b != 2 {
		t.Fatalf("LSNs = %d, %d", a, b)
	}
}

// TestCloseDrainsStagedRecords: Close sequences and syncs whatever is
// staged, even a record no barrier ever asked to make durable.
func TestCloseDrainsStagedRecords(t *testing.T) {
	b := &countingBackend{}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if b.recs.Load() != 1 {
		t.Fatalf("Close left %d records synced, want 1", b.recs.Load())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCrashPointDropsTail: batches from the injection point onward never
// reach the backend, while in-memory sequencing and acknowledgements
// continue — the simulation contract the crash-injection harness relies on.
func TestCrashPointDropsTail(t *testing.T) {
	b := &countingBackend{}
	l, err := Open(Config{
		Backend:    b,
		CrashPoint: func(batch int, _ []Record) bool { return batch >= 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	}
	if l.Records() != 5 {
		t.Fatalf("in-memory Records = %d, want 5 (sequencing must continue past the crash)", l.Records())
	}
	if got := b.recs.Load(); got != 2 {
		t.Fatalf("backend saw %d records, want 2 (batches 0 and 1)", got)
	}
	if got := b.syncs.Load(); got != 2 {
		t.Fatalf("backend saw %d syncs, want 2", got)
	}
}

// onceFailingBackend fails exactly one Sync (the second), then recovers —
// a transient device error. writes and calls count Write and Sync calls;
// pending holds the batches written since the last good Sync, which
// persists them to batches.
type onceFailingBackend struct {
	writes  int
	calls   int
	pending [][]Record
	batches [][]Record
}

func (b *onceFailingBackend) Write(recs []Record, _ []byte) error {
	b.writes++
	b.pending = append(b.pending, append([]Record(nil), recs...))
	return nil
}

func (b *onceFailingBackend) Sync() error {
	b.calls++
	if b.calls == 2 {
		return fmt.Errorf("transient device error")
	}
	b.batches = append(b.batches, b.pending...)
	b.pending = nil
	return nil
}
func (b *onceFailingBackend) Close() error { return nil }

// TestSyncFailureStopsBackendWrites: after the first Sync failure the log
// stops handing batches to the backend entirely — appending after a hole
// would make the whole file unreplayable, while stopping preserves the
// cleanly-synced prefix. The failure stays sticky in Err.
func TestSyncFailureStopsBackendWrites(t *testing.T) {
	b := &onceFailingBackend{}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l.Append(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	}
	if l.Err() == nil {
		t.Fatal("sync failure not recorded")
	}
	if b.calls != 2 {
		t.Fatalf("backend saw %d Sync calls, want 2 (no writes after the failure)", b.calls)
	}
	if b.writes != 2 {
		t.Fatalf("backend saw %d Write calls, want 2 (no writes after the failure)", b.writes)
	}
	if len(b.batches) != 1 {
		t.Fatalf("backend persisted %d batches, want only the pre-failure prefix", len(b.batches))
	}
	if l.Records() != 4 {
		t.Fatalf("in-memory Records = %d, want 4 (log stays usable)", l.Records())
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close must surface the sticky sync failure")
	}
}

// TestAppendLSNVisibleAcrossFlushers: an Append's returned LSN (the log's
// LSN at Open plus the record's ticket) is the record's true assignment
// even when a different goroutine's barrier (a concurrent committer)
// performed the sequencing. Run under -race it also checks that the
// returned record is read back race-free through Snapshot.
func TestAppendLSNVisibleAcrossFlushers(t *testing.T) {
	// The subtest names the one flush mode: barriers lead every round.
	t.Run("sync", func(t *testing.T) {
		l, err := Open(Config{Backend: &countingBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		const gs = 6
		const per = 50
		// A rival barrier races to sequence other goroutines' staged
		// records, so many Appends observe an LSN they did not assign
		// themselves.
		stop := make(chan struct{})
		var rival sync.WaitGroup
		rival.Add(1)
		go func() {
			defer rival.Done()
			for {
				select {
				case <-stop:
					return
				default:
					l.Flush()
				}
			}
		}()
		type got struct {
			lsn LSN
			tag string
		}
		results := make([][]got, gs)
		var wg sync.WaitGroup
		for g := 0; g < gs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				txn := history.TxnID(rune('A' + g))
				for i := 0; i < per; i++ {
					tag := fmt.Sprintf("%d.%d", g, i)
					lsn := l.Append(Record{
						Kind: Update, Txn: txn, Obj: "X",
						Op: spec.Op(spec.NewInvocation("w", tag), "ok"),
					})
					results[g] = append(results[g], got{lsn, tag})
				}
			}(g)
		}
		wg.Wait()
		close(stop)
		rival.Wait()
		for g, rs := range results {
			var prev LSN
			for _, r := range rs {
				if r.lsn == 0 {
					t.Fatalf("goroutine %d: Append returned the nil LSN for %s", g, r.tag)
				}
				if r.lsn <= prev {
					t.Fatalf("goroutine %d: LSNs not increasing (%d after %d)", g, r.lsn, prev)
				}
				prev = r.lsn
				rec, ok := recordAt(l, r.lsn)
				if !ok {
					t.Fatalf("goroutine %d: no record at returned LSN %d", g, r.lsn)
				}
				if rec.Op.Inv.Args != r.tag {
					t.Fatalf("goroutine %d: LSN %d holds %s, want args %s",
						g, r.lsn, rec.Op, r.tag)
				}
			}
		}
	})
}
