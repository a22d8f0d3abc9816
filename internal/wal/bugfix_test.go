package wal

// Regression tests for three WAL bugs fixed together:
//
//  1. WaitDurable blocked forever unless the caller had flushed first
//     (nothing but a barrier sequences staged records);
//  2. the read accessors called Flush() and discarded its error, so on a
//     closing log (where Flush returns ErrClosed without sequencing) they
//     could serve a view missing records staged just before Close began;
//  3. Bytes() was built on per-record size estimates that drifted from the
//     real durable encoding, so the live accounting disagreed with the
//     on-disk file sizes.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
)

// TestWaitDurableSyncSelfSequences: WaitDurable on a ticket the caller
// never flushed must sequence the staged records itself
// rather than sleeping on a watermark nothing will ever advance. Before
// the fix this test timed out (the barrier hung forever).
func TestWaitDurableSyncSelfSequences(t *testing.T) {
	l := backedLog(t)
	defer l.Close()
	tk, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(tk) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitDurable: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable hung: nothing sequenced the staged record")
	}
	if !l.IsDurable(tk) {
		t.Fatal("ticket not durable after WaitDurable returned")
	}
}

// gateBackend blocks every Write until the gate channel is closed and
// signals each entry. Write runs under the flush lock, so a barrier held
// there keeps every other round — Close's final drain included — from
// sequencing, while the test races readers against Close.
type gateBackend struct {
	entered chan struct{}
	gate    chan struct{}
}

func (b *gateBackend) Write([]Record, []byte) error {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.gate
	return nil
}

func (b *gateBackend) Sync() error  { return nil }
func (b *gateBackend) Close() error { return nil }

// TestSnapshotSequencesOnClosingLog: a reader that loses the race with
// Close must still see every record staged before Close began. Before the
// fix, the read accessors discarded Flush's ErrClosed and returned
// immediately with whatever was already sequenced — silently missing the
// staged tail that Close's drain was about to sequence. The readers here
// are Records and Stats.
func TestSnapshotSequencesOnClosingLog(t *testing.T) {
	b := &gateBackend{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	if err != nil {
		t.Fatal(err)
	}
	// A barrier leads round {R1} and is held inside its Write — it owns
	// the flush lock — then a second record is staged that no round has
	// seen, and Close's drain queues behind the held round.
	barrier := make(chan error, 1)
	go func() { barrier <- l.WaitDurable(tk) }()
	<-b.entered
	if _, err := l.AppendAsync(Record{Kind: Update, Txn: "B", Obj: "X", Op: adt.DepositOk(2)}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	for !l.closing.Load() {
		runtime.Gosched()
	}
	// The log is now closing with one record still staged. A correct
	// reader blocks until the drain sequences it; the buggy reader
	// returned a 1-record view within this window.
	recordsC, statsC := make(chan int, 1), make(chan int, 1)
	go func() { recordsC <- l.Records() }()
	go func() { statsC <- l.Stats().Records }()
	time.Sleep(20 * time.Millisecond)
	close(b.gate)
	if n := <-recordsC; n != 2 {
		t.Fatalf("Records on closing log = %d, want 2 (staged tail lost)", n)
	}
	if n := <-statsC; n != 2 {
		t.Fatalf("Stats().Records on closing log = %d, want 2 (staged tail lost)", n)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-barrier; err != nil {
		t.Fatalf("barrier on R1: %v", err)
	}
}

// TestBytesMatchesDurableEncoding: the live Stats().Bytes accounting must
// equal the size of the segment files on disk. With one
// unbounded segment ("file") truncation has no segment boundary to align
// to, so it must drop and unlink nothing and leave the accounting as it
// was; with rotating segments ("segmented") the equality must also hold
// after truncation unlinks segments. Before the fix the accounting used
// per-record size estimates that drift from the real encoding.
func TestBytesMatchesDurableEncoding(t *testing.T) {
	records := func(n int) []Record {
		var out []Record
		for i := 0; i < n; i++ {
			txn := history.TxnID("T" + string(rune('a'+i%4)))
			switch i % 4 {
			case 0:
				out = append(out, Record{Kind: Update, Txn: txn, Obj: "acct", Op: adt.DepositOk(i),
					Undo: EncodedUndo("tok\ten")})
			case 1:
				out = append(out, Record{Kind: RedoRec, Txn: txn, Obj: "acct", Op: adt.WithdrawOk(1)})
			case 2:
				out = append(out, Record{Kind: TxnCommitRec, Txn: txn, Deps: []history.TxnID{"Ta", "Tb"}})
			default:
				out = append(out, Record{Kind: CommitRec, Txn: txn, Obj: "acct"})
			}
		}
		return out
	}

	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		fb, err := CreateSegmentedBackend(dir, SegmentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(Config{Backend: fb})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for _, r := range records(16) {
			if appendDurable(t, l, r) == 0 {
				t.Fatal("append failed")
			}
		}
		check := func(stage string) {
			if segs := segmentsOf(fb); len(segs) != 1 {
				t.Fatalf("%s: %d segments, want the one unbounded segment", stage, len(segs))
			}
			if got, want := l.Stats().Bytes, segmentFileBytes(t, dir); got != want {
				t.Fatalf("%s: Stats().Bytes=%d, on-disk size=%d", stage, got, want)
			}
		}
		check("after appends")
		// The only segment starts at LSN 1, so a truncation request
		// aligns down to it: nothing dropped, nothing unlinked.
		if n, err := l.TruncateBefore(9); err != nil || n != 0 {
			t.Fatalf("truncate: n=%d err=%v, want nothing dropped", n, err)
		}
		if got := l.Base(); got != 0 {
			t.Fatalf("base %d after truncating the one unbounded segment, want 0", got)
		}
		if got := l.Stats().Truncate.SegmentsUnlinked; got != 0 {
			t.Fatalf("truncation unlinked %d segments of the one unbounded segment", got)
		}
		check("after truncation")
	})

	t.Run("segmented", func(t *testing.T) {
		dir := t.TempDir()
		sb, err := CreateSegmentedBackend(dir, SegmentConfig{MaxSegmentBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(Config{Backend: sb})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for _, r := range records(24) {
			if appendDurable(t, l, r) == 0 {
				t.Fatal("append failed")
			}
		}
		check := func(stage string) {
			if got, want := l.Stats().Bytes, segmentFileBytes(t, dir); got != want {
				t.Fatalf("%s: Stats().Bytes=%d, on-disk segment bytes=%d", stage, got, want)
			}
		}
		if segs := segmentsOf(sb); len(segs) < 2 {
			t.Fatal("workload did not rotate segments; raise the record count")
		}
		check("after appends")
		if _, err := l.TruncateBefore(l.AlignTruncate(13)); err != nil {
			t.Fatal(err)
		}
		if l.Stats().Truncate.SegmentsUnlinked == 0 {
			t.Fatal("truncation unlinked no segment; lower the truncation point's alignment")
		}
		check("after truncation")
	})
}
