package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/spec"
)

// TestAsyncFlushIsCommitBarrier: in async mode, Flush returns only after
// everything staged before the call is sequenced and synced to the backend.
func TestAsyncFlushIsCommitBarrier(t *testing.T) {
	b := NewLatencyBackend(0)
	l, err := Open(Config{Async: true, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	l.AppendAsync(Record{Kind: CommitRec, Txn: "A", Obj: "X"})
	l.Flush()
	if b.SyncedRecords() < 2 {
		t.Fatalf("after Flush ack only %d records synced, want >= 2", b.SyncedRecords())
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
}

// TestAsyncAppendReturnsLSN: the synchronous Append path works in async
// mode — the barrier publishes the flusher's LSN assignment.
func TestAsyncAppendReturnsLSN(t *testing.T) {
	l, err := Open(Config{Async: true})
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

// TestAsyncBackgroundFlush: records staged with AppendAsync and never
// explicitly flushed are still made durable by the background flusher.
func TestAsyncBackgroundFlush(t *testing.T) {
	b := NewLatencyBackend(0)
	l, err := Open(Config{Async: true, BatchInterval: time.Millisecond, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	deadline := time.Now().Add(5 * time.Second)
	for b.SyncedRecords() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced the staged record")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAsyncBatchIntervalGroupsCommits: with a dwell interval, concurrent
// committers' records land in shared batches — the mean batch size exceeds
// one record even though every appender flushes.
func TestAsyncBatchIntervalGroupsCommits(t *testing.T) {
	b := NewLatencyBackend(0)
	l, err := Open(Config{Async: true, BatchInterval: 2 * time.Millisecond, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const gs = 8
	const per = 10
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := history.TxnID(rune('A' + g))
			for i := 0; i < per; i++ {
				l.AppendAsync(Record{Kind: Update, Txn: txn, Obj: "X", Op: adt.DepositOk(1)})
				l.Flush()
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != gs*per {
		t.Fatalf("Len = %d, want %d", l.Len(), gs*per)
	}
	if f := l.Flushes(); f >= int64(gs*per) {
		t.Fatalf("flushes = %d for %d records: dwell produced no batching", f, gs*per)
	}
}

// TestCloseDrainsStagedRecords: Close sequences and syncs whatever is
// staged before stopping the flusher.
func TestCloseDrainsStagedRecords(t *testing.T) {
	b := NewLatencyBackend(0)
	l, err := Open(Config{Async: true, BatchInterval: time.Minute, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if b.SyncedRecords() != 1 {
		t.Fatalf("Close left %d records synced, want 1", b.SyncedRecords())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCrashPointDropsTail: batches from the injection point onward never
// reach the backend, while in-memory sequencing and acknowledgements
// continue — the simulation contract the crash-injection harness relies on.
func TestCrashPointDropsTail(t *testing.T) {
	b := NewLatencyBackend(0)
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
	if l.Len() != 5 {
		t.Fatalf("in-memory Len = %d, want 5 (sequencing must continue past the crash)", l.Len())
	}
	if got := b.SyncedRecords(); got != 2 {
		t.Fatalf("backend saw %d records, want 2 (batches 0 and 1)", got)
	}
	if got := b.Syncs(); got != 2 {
		t.Fatalf("backend saw %d syncs, want 2", got)
	}
}

// onceFailingBackend fails exactly one Sync (the second), then recovers —
// a transient device error.
type onceFailingBackend struct {
	calls   int
	batches [][]Record
}

func (b *onceFailingBackend) Sync(recs []Record) error {
	b.calls++
	if b.calls == 2 {
		return fmt.Errorf("transient device error")
	}
	b.batches = append(b.batches, append([]Record(nil), recs...))
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
	if len(b.batches) != 1 {
		t.Fatalf("backend persisted %d batches, want only the pre-failure prefix", len(b.batches))
	}
	if l.Len() != 4 {
		t.Fatalf("in-memory Len = %d, want 4 (log stays usable)", l.Len())
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close must surface the sticky sync failure")
	}
}

// TestAppendLSNVisibleAcrossFlushers pins the publication contract of
// stagedRec.lsn: an Append's returned LSN is the record's true assignment
// even when a different goroutine's flusher (a concurrent committer in
// sync mode, the dedicated flusher in async mode) performed the
// sequencing. Run under -race this is the regression test for the
// documented happens-before edge (flush lock handoff, or barrier-channel
// close).
func TestAppendLSNVisibleAcrossFlushers(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"sync", Config{Stripes: 4}},
		{"async", Config{Stripes: 4, Async: true}},
		{"async-dwell", Config{Stripes: 4, Async: true, BatchInterval: 200 * time.Microsecond}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			l, err := Open(mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const gs = 6
			const per = 50
			// A rival flusher races to sequence other goroutines' staged
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
					rec, ok := l.Get(r.lsn)
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
}
