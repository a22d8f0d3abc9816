package wal

// Truncation tests: TruncateBefore drops the prefix from memory and from
// the segmented backend (by unlinking whole segments), reopen replays only
// the surviving suffix with LSNs preserved, PrevLSN chains that cross the
// truncation base are accepted, and — the watermark regression — a lagging
// or dead flusher bounds how far truncation may reach.

import (
	"errors"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
)

func truncRec(txn history.TxnID, obj history.ObjectID, name string) Record {
	return Record{Kind: Update, Txn: txn, Obj: obj,
		Op: spec.Operation{Inv: spec.Invocation{Name: name}, Res: "ok"}}
}

// TestTruncateBeforeInMemory checks the in-memory bookkeeping: Base
// advances, Len/Records shrink, Bytes drops, truncated LSNs vanish from
// Get, retained LSNs keep their numbers, and SuffixLen counts past any
// point.
func TestTruncateBeforeInMemory(t *testing.T) {
	l := NewStriped(2)
	for i := 0; i < 10; i++ {
		l.Append(truncRec("T1", "x", "op"))
	}
	if got := l.SuffixLen(4); got != 6 {
		t.Fatalf("SuffixLen(4) = %d, want 6", got)
	}
	bytesBefore := l.Bytes()
	n, err := l.TruncateBefore(5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("truncated %d records, want 4", n)
	}
	if got := l.Base(); got != 4 {
		t.Fatalf("Base = %d, want 4", got)
	}
	if got := l.Records(); got != 6 {
		t.Fatalf("Records = %d, want 6", got)
	}
	if got := l.Bytes(); got >= bytesBefore || got <= 0 {
		t.Fatalf("Bytes = %d after truncation, want positive and below %d", got, bytesBefore)
	}
	if _, ok := l.Get(4); ok {
		t.Fatal("truncated LSN 4 still readable")
	}
	if r, ok := l.Get(5); !ok || r.LSN != 5 {
		t.Fatalf("retained LSN 5: ok=%v rec=%+v", ok, r)
	}
	if got := l.SuffixLen(0); got != 6 {
		t.Fatalf("SuffixLen(0) = %d, want 6 (truncated records are gone)", got)
	}
	// Idempotent and monotone: truncating at or below the base is a no-op.
	if n, err := l.TruncateBefore(3); err != nil || n != 0 {
		t.Fatalf("re-truncate below base: n=%d err=%v", n, err)
	}
	// New appends continue the LSN sequence.
	if lsn := l.Append(truncRec("T2", "y", "op")); lsn != 11 {
		t.Fatalf("append after truncation assigned LSN %d, want 11", lsn)
	}
}

// TestTruncateChainAcrossBase: a transaction whose chain spans the
// truncation point keeps its retained records walkable, with the walk
// stopping at the base instead of indexing into the dropped prefix.
func TestTruncateChainAcrossBase(t *testing.T) {
	l := NewStriped(1)
	l.Append(truncRec("T1", "x", "a")) // LSN 1
	l.Append(truncRec("T2", "x", "b")) // LSN 2
	l.Append(truncRec("T1", "x", "c")) // LSN 3, PrevLSN 1
	if _, err := l.TruncateBefore(3); err != nil {
		t.Fatal(err)
	}
	chain := l.TxnChain("T1")
	if len(chain) != 1 || chain[0].LSN != 3 || chain[0].PrevLSN != 1 {
		t.Fatalf("chain = %+v, want the single retained record LSN 3 chaining to truncated 1", chain)
	}
	if got := l.TxnChain("T2"); len(got) != 0 {
		t.Fatalf("fully truncated transaction still has a chain: %+v", got)
	}
}

// TestTruncateFileBackendReopen: with one segment per single-record batch
// the backend truncates exactly at the requested point, a reopened backend
// replays only the suffix with original LSNs (wal.Open fixes the base from
// the first surviving record), and cross-base PrevLSN chains pass replay
// validation.
func TestTruncateFileBackendReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentConfig{MaxSegmentBytes: 1}
	backend, err := CreateSegmentedBackend(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(truncRec("T1", "x", "a")) // LSN 1
	l.Append(truncRec("T2", "y", "b")) // LSN 2
	l.Append(truncRec("T1", "x", "c")) // LSN 3, chains to 1
	l.Append(truncRec("T2", "y", "d")) // LSN 4, chains to 2
	if n, err := l.TruncateBefore(3); err != nil || n != 2 {
		t.Fatalf("truncate: n=%d err=%v", n, err)
	}
	l.Append(truncRec("T3", "z", "e")) // LSN 5
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSegmentedBackend(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Config{Backend: re})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Base(); got != 2 {
		t.Fatalf("reopened base = %d, want 2", got)
	}
	snap := l2.Snapshot()
	if len(snap) != 3 || snap[0].LSN != 3 || snap[2].LSN != 5 {
		t.Fatalf("reopened suffix = %+v, want LSNs 3..5", snap)
	}
	if got := l2.DurableLSN(); got != 5 {
		t.Fatalf("reopened durable watermark = %d, want 5", got)
	}
	// The replayed log keeps accepting appends with continuous LSNs.
	if lsn := l2.Append(truncRec("T1", "x", "f")); lsn != 6 {
		t.Fatalf("append after reopen assigned LSN %d, want 6", lsn)
	}
	if chain := l2.TxnChain("T1"); len(chain) != 2 || chain[1].LSN != 3 {
		t.Fatalf("T1 chain after reopen = %+v", chain)
	}
}

// TestTruncateClampsToDurableWatermark is the lagging-flusher regression:
// a backend that dies after its first sync freezes the watermark while the
// in-memory log keeps sequencing, and truncation must clamp to the
// watermark instead of discarding the only durable copy of unsynced
// records' predecessors.
func TestTruncateClampsToDurableWatermark(t *testing.T) {
	b := &failingBackend{failAfter: 1}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.AppendAsync(truncRec("T1", "x", "a")); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush() // batch 1: syncs, watermark -> 3
	for i := 0; i < 3; i++ {
		if _, err := l.AppendAsync(truncRec("T2", "y", "b")); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush() // batch 2: sync fails, watermark frozen at 3
	if l.Err() == nil {
		t.Fatal("backend failure not recorded")
	}
	if got := l.DurableLSN(); got != 3 {
		t.Fatalf("durable watermark = %d, want 3", got)
	}
	n, err := l.TruncateBefore(6)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("truncated %d records, want 3 (clamped to watermark+1)", n)
	}
	if got := l.Base(); got != 3 {
		t.Fatalf("base = %d, want 3: truncation crossed the durable watermark", got)
	}
	if r, ok := l.Get(4); !ok || r.Txn != "T2" {
		t.Fatalf("first unsynced record lost: ok=%v rec=%+v", ok, r)
	}
}

// failingBackend syncs successfully failAfter times, then fails forever.
type failingBackend struct {
	syncs     int
	failAfter int
}

func (b *failingBackend) Sync(records []Record) error {
	b.syncs++
	if b.syncs > b.failAfter {
		return errors.New("device died")
	}
	return nil
}

func (b *failingBackend) Close() error { return nil }
