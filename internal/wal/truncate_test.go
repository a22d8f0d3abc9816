package wal

// Truncation tests: TruncateBefore advances the base and drops the prefix
// from the segmented backend (by unlinking whole segments), reopen replays only
// the surviving suffix with LSNs preserved, PrevLSN chains that cross the
// truncation base are accepted, and — the watermark regression — a log
// whose durable watermark lags or froze bounds how far truncation may
// reach.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
)

func truncRec(txn history.TxnID, obj history.ObjectID, name string) Record {
	return Record{Kind: Update, Txn: txn, Obj: obj,
		Op: spec.Operation{Inv: spec.Invocation{Name: name}, Res: "ok"}}
}

// TestTruncateBeforeInMemory checks the bookkeeping of a truncation the
// backend does not realize (the test device has no Truncator): Base
// advances, Records shrinks, Bytes — the bytes the backend holds — stays
// where it was, and retained LSNs keep their numbers.
func TestTruncateBeforeInMemory(t *testing.T) {
	l := backedLog(t)
	for i := 0; i < 10; i++ {
		appendDurable(t, l, truncRec("T1", "x", "op"))
	}
	bytesBefore := l.Stats().Bytes
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
	if got := l.Stats().Bytes; got != bytesBefore || got <= 0 {
		t.Fatalf("Bytes = %d after truncation, want %d: a backend with no Truncator unlinks nothing", got, bytesBefore)
	}
	if recs := logged(t, l); len(recs) != 6 || recs[0].LSN != 5 {
		t.Fatalf("log spans %d records from %+v, want 6 from LSN 5", len(recs), recs)
	}
	// Idempotent and monotone: truncating at or below the base is a no-op.
	if n, err := l.TruncateBefore(3); err != nil || n != 0 {
		t.Fatalf("re-truncate below base: n=%d err=%v", n, err)
	}
	// New appends continue the LSN sequence.
	if lsn := appendDurable(t, l, truncRec("T2", "y", "op")); lsn != 11 {
		t.Fatalf("append after truncation assigned LSN %d, want 11", lsn)
	}
}

// TestTruncateChainAcrossBase: a transaction whose chain spans the
// truncation point keeps its retained records walkable, with the walk
// stopping at the base instead of indexing into the dropped prefix.
func TestTruncateChainAcrossBase(t *testing.T) {
	l := backedLog(t)
	appendDurable(t, l, truncRec("T1", "x", "a")) // LSN 1
	appendDurable(t, l, truncRec("T2", "x", "b")) // LSN 2
	appendDurable(t, l, truncRec("T1", "x", "c")) // LSN 3, PrevLSN 1
	if _, err := l.TruncateBefore(3); err != nil {
		t.Fatal(err)
	}
	chain := chainOf(logged(t, l), "T1")
	if len(chain) != 1 || chain[0].LSN != 3 || chain[0].PrevLSN != 1 {
		t.Fatalf("chain = %+v, want the single retained record LSN 3 chaining to truncated 1", chain)
	}
	if got := chainOf(logged(t, l), "T2"); len(got) != 0 {
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
	appendDurable(t, l, truncRec("T1", "x", "a")) // LSN 1
	appendDurable(t, l, truncRec("T2", "y", "b")) // LSN 2
	appendDurable(t, l, truncRec("T1", "x", "c")) // LSN 3, chains to 1
	appendDurable(t, l, truncRec("T2", "y", "d")) // LSN 4, chains to 2
	if n, err := l.TruncateBefore(3); err != nil || n != 2 {
		t.Fatalf("truncate: n=%d err=%v", n, err)
	}
	appendDurable(t, l, truncRec("T3", "z", "e")) // LSN 5
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
	if got := l2.Base(); got != 2 {
		t.Fatalf("reopened base = %d, want 2", got)
	}
	snap := replayed(t, l2)
	if len(snap) != 3 || snap[0].LSN != 3 || snap[2].LSN != 5 {
		t.Fatalf("reopened suffix = %+v, want LSNs 3..5", snap)
	}
	if got := l2.DurableLSN(); got != 5 {
		t.Fatalf("reopened durable watermark = %d, want 5", got)
	}
	// The replayed log keeps accepting appends with continuous LSNs.
	if lsn := appendDurable(t, l2, truncRec("T1", "x", "f")); lsn != 6 {
		t.Fatalf("append after reopen assigned LSN %d, want 6", lsn)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if chain := chainOf(readSegments(t, dir), "T1"); len(chain) != 2 || chain[1].LSN != 3 {
		t.Fatalf("T1 chain after reopen = %+v", chain)
	}
}

// TestTruncateBoundsChainHeads: the chain-head map holds the transactions
// logged since the last truncation, not every transaction ever logged. A
// transaction whose head was truncated away chains its next record to the
// nil LSN, and the reopened log's chain check accepts every PrevLSN the
// live log assigned.
func TestTruncateBoundsChainHeads(t *testing.T) {
	dir := t.TempDir()
	cfg := SegmentConfig{MaxSegmentBytes: 1}
	backend, err := CreateSegmentedBackend(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// lPrev collects the PrevLSN of each of L's records as it is sequenced.
	var lPrev []LSN
	l, err := Open(Config{Backend: backend, CrashPoint: func(_ int, recs []Record) bool {
		for _, r := range recs {
			if r.Txn == "L" {
				lPrev = append(lPrev, r.PrevLSN)
			}
		}
		return false
	}})
	if err != nil {
		t.Fatal(err)
	}
	heads := func(l *Log) int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.lastOf)
	}
	const commits, every = 60, 10
	// L stays live across the first truncation, which drops its head.
	appendDurable(t, l, truncRec("L", "x", "a"))
	live := 1 // transactions logged since the last truncation
	for i := 0; i < commits; i++ {
		txn := history.TxnID(fmt.Sprintf("T%03d", i))
		appendDurable(t, l, truncRec(txn, "x", "op"))
		last := appendDurable(t, l, Record{Kind: TxnCommitRec, Txn: txn})
		live++
		if got := heads(l); got > live {
			t.Fatalf("commit %d: %d chain heads, want at most %d", i, got, live)
		}
		if (i+1)%every == 0 {
			// Keep the last commit record: its transaction stays live.
			if _, err := l.TruncateBefore(last); err != nil {
				t.Fatal(err)
			}
			live = 1
		}
		if i == every {
			appendDurable(t, l, truncRec("L", "x", "b"))
			live++
			if len(lPrev) != 2 || lPrev[1] != 0 {
				t.Fatalf("L's record after its head was truncated chains to %v, want PrevLSN 0", lPrev)
			}
		}
	}
	wantHeads := heads(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := readSegments(t, dir)

	re, err := OpenSegmentedBackend(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Config{Backend: re})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := replayed(t, l2)
	if len(got) != len(want) {
		t.Fatalf("reopened log holds %d records, live log held %d", len(got), len(want))
	}
	for i := range got {
		if got[i].LSN != want[i].LSN || got[i].PrevLSN != want[i].PrevLSN {
			t.Fatalf("record %d: reopened LSN %d PrevLSN %d, live LSN %d PrevLSN %d",
				i, got[i].LSN, got[i].PrevLSN, want[i].LSN, want[i].PrevLSN)
		}
	}
	if h := heads(l2); h != wantHeads {
		t.Fatalf("reopened log has %d chain heads, live log had %d", h, wantHeads)
	}
}

// TestTruncateClampsToDurableWatermark is the lagging-watermark regression:
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
	if got := l.Records(); got != 3 {
		t.Fatalf("Records = %d, want 3: the unsynced records 4..6 must stay in the log", got)
	}
}

// failingBackend syncs successfully failAfter times, then fails forever.
type failingBackend struct {
	syncs     int
	failAfter int
}

func (b *failingBackend) Write([]Record, []byte) error { return nil }

func (b *failingBackend) Sync() error {
	b.syncs++
	if b.syncs > b.failAfter {
		return errors.New("device died")
	}
	return nil
}

func (b *failingBackend) Close() error { return nil }
