package wal

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
)

// TestStatsMatchesAccessors checks that on a quiesced log every Stats
// field equals the accessor that reads it alone — the single sequence
// point changes the read protocol, not the numbers — and that the fields
// with no accessor of their own equal the counters behind them: Bytes the
// encoding of the retained records, Flushes and StripeAcquisitions their
// atomics, Truncate the backend's truncation cost (none: the counting
// device cannot truncate).
func TestStatsMatchesAccessors(t *testing.T) {
	l := backedLog(t)
	for i := 0; i < 10; i++ {
		l.Append(Record{Kind: Update, Txn: history.TxnID(fmt.Sprintf("T%d", i)), Obj: "X", Op: adt.DepositOk(1)})
	}
	if _, err := l.TruncateBefore(4); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.FlushedRecords != l.FlushedRecords() {
		t.Errorf("FlushedRecords: %d vs %d", s.FlushedRecords, l.FlushedRecords())
	}
	if s.DurableLSN != l.DurableLSN() {
		t.Errorf("DurableLSN: %d vs %d", s.DurableLSN, l.DurableLSN())
	}
	if !l.IsDurable(s.DurableTicket) || l.IsDurable(s.DurableTicket+1) {
		t.Errorf("DurableTicket %d is not the durable frontier", s.DurableTicket)
	}
	if s.Records != l.Records() {
		t.Errorf("Records: %d vs %d", s.Records, l.Records())
	}
	if s.Base != l.Base() {
		t.Errorf("Base: %d vs %d", s.Base, l.Base())
	}
	if s.Discipline != l.Discipline() {
		t.Errorf("Discipline: %q vs %q", s.Discipline, l.Discipline())
	}
	if s.Err != l.Err() {
		t.Errorf("Err: %v vs %v", s.Err, l.Err())
	}
	var encoded []byte
	for _, r := range l.Snapshot() {
		var err error
		if encoded, err = appendRecord(encoded, r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Bytes != int64(len(encoded)) {
		t.Errorf("Bytes: %d, retained records encode to %d", s.Bytes, len(encoded))
	}
	if s.Flushes != l.flushes.Load() || s.Flushes != 10 {
		t.Errorf("Flushes: %d vs %d, want 10 (one per Append)", s.Flushes, l.flushes.Load())
	}
	if s.StripeAcquisitions != l.stageAcqs.Load() || s.StripeAcquisitions != 10 {
		t.Errorf("StripeAcquisitions: %d vs %d, want 10", s.StripeAcquisitions, l.stageAcqs.Load())
	}
	if s.Truncate != (TruncateStats{}) {
		t.Errorf("Truncate: %+v, want none", s.Truncate)
	}
	if s.Base != 3 || s.Records != 7 {
		t.Errorf("after TruncateBefore(4): Base=%d Records=%d, want 3 and 7", s.Base, s.Records)
	}
}

// TestStatsCoherentUnderConcurrency is the torn-read proof. On a
// synchronous log over a zero-latency backend the invariant DurableLSN ==
// Base + Records holds at every sequence point (every sequenced batch is
// synced before the flush lock is released, LSNs are never renumbered).
// Reading Base and Records through the individual accessors while
// appenders and a truncator run can violate it — each accessor locks
// separately, so a truncation can land between the two reads. Stats reads
// all fields under one sequence point, so the invariant must hold in every
// snapshot it returns.
func TestStatsCoherentUnderConcurrency(t *testing.T) {
	l := backedLog(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txn := history.TxnID(fmt.Sprintf("W%d", w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l.Append(Record{Kind: Update, Txn: txn, Obj: "X", Op: adt.DepositOk(1)})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			durable := l.DurableLSN()
			if durable > 2 {
				if _, err := l.TruncateBefore(durable - 2); err != nil {
					t.Errorf("truncate: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		s := l.Stats()
		if got := s.Base + LSN(s.Records); s.DurableLSN != got {
			t.Fatalf("torn snapshot %d: DurableLSN=%d but Base+Records=%d (+%d records, base %d)",
				i, s.DurableLSN, got, s.Records, s.Base)
		}
	}
	close(stop)
	wg.Wait()
}
