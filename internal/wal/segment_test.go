package wal

// Segmented-backend tests: rotation at the byte threshold with batches
// never split across segments, reopen scanning segments in LSN order with
// final-segment-only torn-tail repair, unlink-based truncation with zero
// data bytes rewritten, and the alignment contract that keeps the
// in-memory log and the segment files in exact agreement.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
)

func segRec(txn history.TxnID, obj history.ObjectID, name string) Record {
	return Record{Kind: Update, Txn: txn, Obj: obj,
		Op: spec.Operation{Inv: spec.Invocation{Name: name}, Res: "ok"}}
}

// tinySegConfig rotates after every record or two: each encoded record is
// ~20 bytes, so a 32-byte threshold seals a segment as soon as it holds
// one single-record batch (rotation happens when the active segment is
// already at or past the threshold).
func tinySegConfig() SegmentConfig { return SegmentConfig{MaxSegmentBytes: 32} }

func openSegLog(t *testing.T, dir string, cfg SegmentConfig) (*Log, *SegmentedBackend) {
	t.Helper()
	b, err := OpenSegmentedBackend(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	return l, b
}

// TestSegmentedRotationAndReplay: single-record appends under a tiny
// threshold produce one segment per record, named by its first LSN, and a
// reopen replays all segments in order with LSNs intact.
func TestSegmentedRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	b, err := CreateSegmentedBackend(dir, tinySegConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if lsn := l.Append(segRec("T1", "x", "op")); lsn != LSN(i+1) {
			t.Fatalf("append %d assigned LSN %d", i, lsn)
		}
	}
	segs := b.Segments()
	if len(segs) < 3 {
		t.Fatalf("tiny threshold produced only %d segments: %+v", len(segs), segs)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].FirstLSN <= segs[i-1].FirstLSN {
			t.Fatalf("segment starts not ascending: %+v", segs)
		}
	}
	if segs[0].FirstLSN != 1 {
		t.Fatalf("first segment starts at %d, want 1", segs[0].FirstLSN)
	}
	if got := b.Rotations(); got < 2 {
		t.Fatalf("Rotations = %d, want >= 2", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, b2 := openSegLog(t, dir, tinySegConfig())
	defer l2.Close()
	snap := l2.Snapshot()
	if len(snap) != n || snap[0].LSN != 1 || snap[n-1].LSN != n {
		t.Fatalf("reopened replay = %d records, LSNs %v..%v; want %d spanning 1..%d",
			len(snap), snap[0].LSN, snap[len(snap)-1].LSN, n, n)
	}
	if got := l2.DurableLSN(); got != n {
		t.Fatalf("reopened durable watermark = %d, want %d", got, n)
	}
	// Appends continue the sequence into the re-adopted active segment.
	if lsn := l2.Append(segRec("T2", "y", "op")); lsn != n+1 {
		t.Fatalf("append after reopen assigned LSN %d, want %d", lsn, n+1)
	}
	if starts := b2.SegmentStarts(); len(starts) != len(b2.Segments()) {
		t.Fatalf("SegmentStarts/Segments disagree: %v vs %+v", starts, b2.Segments())
	}
}

// TestSegmentedBatchNeverSplit: a multi-record batch lands wholly in one
// segment even when it overshoots the threshold.
func TestSegmentedBatchNeverSplit(t *testing.T) {
	dir := t.TempDir()
	b, err := CreateSegmentedBackend(dir, tinySegConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Stage 5 records, flush once: one batch, far past 32 bytes.
	for i := 0; i < 5; i++ {
		if _, err := l.AppendAsync(segRec("T1", "x", "op")); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	segs := b.Segments()
	if len(segs) != 1 {
		t.Fatalf("one oversized batch split across %d segments: %+v", len(segs), segs)
	}
	// The next batch rotates (active is past the threshold).
	l.Append(segRec("T2", "y", "op"))
	if segs := b.Segments(); len(segs) != 2 || segs[1].FirstLSN != 6 {
		t.Fatalf("follow-up batch did not rotate to a new segment at LSN 6: %+v", segs)
	}
}

// TestSegmentedTruncateUnlinksWithoutRewrite is the tentpole assertion:
// truncation unlinks dead segments, rewrites zero data bytes, and the
// reopened log replays exactly the retained suffix.
func TestSegmentedTruncateUnlinksWithoutRewrite(t *testing.T) {
	dir := t.TempDir()
	b, err := CreateSegmentedBackend(dir, tinySegConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		l.Append(segRec("T1", "x", "op"))
	}
	segsBefore := len(b.Segments())
	if segsBefore < 4 {
		t.Fatalf("want >= 4 segments before truncation, got %d", segsBefore)
	}
	dropped, err := l.TruncateBefore(6)
	if err != nil {
		t.Fatal(err)
	}
	stats := l.TruncateStats()
	if stats.SegmentsUnlinked == 0 {
		t.Fatal("segmented truncation unlinked no segments")
	}
	if len(b.Segments()) != segsBefore-stats.SegmentsUnlinked {
		t.Fatalf("segment census: %d before, %d unlinked, %d now",
			segsBefore, stats.SegmentsUnlinked, len(b.Segments()))
	}
	// Alignment: the in-memory base must sit exactly on a segment start.
	base := l.Base()
	if dropped != int(base) {
		t.Fatalf("dropped %d records but base is %d", dropped, base)
	}
	if first := b.Segments()[0].FirstLSN; first != base+1 {
		t.Fatalf("first surviving segment starts at %d, in-memory base+1 is %d", first, base+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, _ := openSegLog(t, dir, tinySegConfig())
	defer l2.Close()
	if got := l2.Base(); got != base {
		t.Fatalf("reopened base = %d, want %d (in-memory and durable logs diverged)", got, base)
	}
	snap := l2.Snapshot()
	if len(snap) == 0 || snap[0].LSN != base+1 || snap[len(snap)-1].LSN != n {
		t.Fatalf("reopened suffix spans %v, want %d..%d", snap, base+1, n)
	}
}

// TestSegmentedTornFinalSegmentRepaired: a torn tail on the final segment
// is crash damage and is truncated away on reopen, like the single-file
// backend.
func TestSegmentedTornFinalSegmentRepaired(t *testing.T) {
	dir := t.TempDir()
	b, err := CreateSegmentedBackend(dir, tinySegConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l.Append(segRec("T1", "x", "op"))
	}
	segs := b.Segments()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].Path
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("5\t0\tT9\tgarbage"); err != nil { // no newline: torn
		t.Fatal(err)
	}
	f.Close()

	l2, _ := openSegLog(t, dir, tinySegConfig())
	defer l2.Close()
	snap := l2.Snapshot()
	if len(snap) != 4 || snap[3].LSN != 4 {
		t.Fatalf("torn final tail not repaired: replay = %+v", snap)
	}
	// The torn bytes are gone from the file.
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "garbage") {
		t.Fatal("torn tail still present after repair")
	}
}

// TestSegmentedTornNonFinalSegmentIsCorruption is the satellite: a torn
// tail on a NON-final segment cannot be produced by a crash of this writer
// (later segments exist only after earlier ones were fsynced complete), so
// reopen must reject it as corruption instead of silently repairing it.
func TestSegmentedTornNonFinalSegmentIsCorruption(t *testing.T) {
	dir := t.TempDir()
	b, err := CreateSegmentedBackend(dir, tinySegConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		l.Append(segRec("T1", "x", "op"))
	}
	segs := b.Segments()
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %+v", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail of the FIRST segment (append bytes with no newline).
	victim := segs[0].Path
	f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("torn"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenSegmentedBackend(dir, tinySegConfig()); err == nil {
		t.Fatal("torn non-final segment accepted on reopen; want corruption error")
	} else if !strings.Contains(err.Error(), "non-final") {
		t.Fatalf("corruption error does not name the torn non-final segment: %v", err)
	}
}

// TestSegmentedAlignTruncate: alignment snaps down to the greatest segment
// start at or below the requested point.
func TestSegmentedAlignTruncate(t *testing.T) {
	dir := t.TempDir()
	b, err := CreateSegmentedBackend(dir, tinySegConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 6; i++ {
		l.Append(segRec("T1", "x", "op"))
	}
	starts := b.SegmentStarts()
	if len(starts) < 3 {
		t.Fatalf("need >= 3 segments, got %v", starts)
	}
	// A point strictly inside segment k aligns to starts[k].
	mid := starts[1] + 0 // exactly a boundary aligns to itself
	if got := b.AlignTruncate(mid); got != starts[1] {
		t.Fatalf("AlignTruncate(%d) = %d, want %d", mid, got, starts[1])
	}
	if got := b.AlignTruncate(starts[2] - 1); got != starts[1] && starts[2]-1 >= starts[1] {
		// starts[2]-1 is inside segment 1 (or equal to a later start when
		// segments hold one record each).
		inside := starts[2] - 1
		want := LSN(0)
		for _, s := range starts {
			if s <= inside {
				want = s
			}
		}
		if got != want {
			t.Fatalf("AlignTruncate(%d) = %d, want %d", inside, got, want)
		}
	}
	// Below the first segment: nothing to align to at or below, returns
	// the input (truncation there is a no-op anyway).
	if got := b.AlignTruncate(0); got != 0 {
		t.Fatalf("AlignTruncate(0) = %d, want 0", got)
	}
}

// TestSegmentedCreateClearsOldSegments: CreateSegmentedBackend on a dir
// with stale segments starts empty.
func TestSegmentedCreateClearsOldSegments(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("1\t0\tT\tx\t0\top\t\tok\t-\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := CreateSegmentedBackend(dir, tinySegConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := len(b.Segments()); got != 0 {
		t.Fatalf("fresh backend has %d segments", got)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); ok {
			t.Fatalf("stale segment %s survived Create", e.Name())
		}
	}
}
