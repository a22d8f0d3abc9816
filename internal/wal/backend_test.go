package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
)

// readSegments returns the records a re-opened segment directory replays.
func readSegments(t *testing.T, dir string) []Record {
	t.Helper()
	b, err := OpenSegmentedBackend(dir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	recs, _ := b.Replay()
	return recs
}

// syncEncoded hands recs to b the way a flush round does: encoded once
// into one frame.
func syncEncoded(b Backend, recs []Record) error {
	var frame []byte
	for _, r := range recs {
		var err error
		if frame, err = appendRecord(frame, r); err != nil {
			return err
		}
	}
	if err := b.Write(recs, frame); err != nil {
		return err
	}
	return b.Sync()
}

// TestFileBackendRoundTrip: records synced to a segment file come back
// byte-identical through a re-open, including awkward field contents.
func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := CreateSegmentedBackend(dir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{LSN: 1, Kind: Update, Txn: "T1", Obj: "X", Op: adt.DepositOk(3)},
		{LSN: 2, Kind: Update, Txn: "T\t2", Obj: "obj\nwith\\newline", PrevLSN: 0,
			Op: adt.PutOk("k\tey", "v\nal"), Undo: EncodedUndo("tok\ten\\1")},
		{LSN: 3, Kind: CommitRec, Txn: "T1", Obj: "X", PrevLSN: 1},
		{LSN: 4, Kind: CompensationRec, Txn: "T\t2", Obj: "obj\nwith\\newline", PrevLSN: 2,
			Op: adt.PutOk("k\tey", "v\nal")},
		{LSN: 5, Kind: AbortRec, Txn: "T\t2", Obj: "obj\nwith\\newline", PrevLSN: 4},
		// The transaction-level commit record has no object and no operation.
		{LSN: 6, Kind: TxnCommitRec, Txn: "T1", PrevLSN: 3},
		// Redo-only discipline records: the logical-op record with no undo
		// payload, the dependency-carrying commit record (awkward IDs
		// included), and the discipline marker.
		{LSN: 7, Kind: RedoRec, Txn: "T3", Obj: "X", Op: adt.DepositOk(5)},
		{LSN: 8, Kind: TxnCommitRec, Txn: "T3", PrevLSN: 7, Deps: []history.TxnID{"T1", "T\t2", `d"ep\`}},
		{LSN: 9, Kind: DisciplineRec, Op: DisciplineMarker(DisciplineRedo).Op},
	}
	if err := syncEncoded(b, recs); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got := readSegments(t, dir)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Fatalf("record %d round-tripped as %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestFileBackendRejectsOpaqueUndo: a raw (non-EncodedUndo) token cannot
// be made durable; the error names the fix. The log encodes each batch
// before handing it to the backend, so a batch holding such a record fails
// atomically: no byte of it is written — not even its encodable records —
// the failure is sticky in Err, and the watermark does not cover it.
func TestFileBackendRejectsOpaqueUndo(t *testing.T) {
	if _, err := appendRecord(nil, Record{LSN: 1, Kind: Update, Txn: "A", Obj: "X",
		Op: adt.DepositOk(1), Undo: struct{ x int }{1}}); err == nil {
		t.Fatal("appendRecord accepted an opaque undo token")
	}
	b, err := CreateSegmentedBackend(t.TempDir(), SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)}); err != nil {
		t.Fatal(err)
	}
	tk, err := l.AppendAsync(Record{Kind: Update, Txn: "A", Obj: "X",
		Op: adt.DepositOk(2), Undo: struct{ x int }{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err == nil || !strings.Contains(err.Error(), "EncodedUndo") {
		t.Fatalf("Err() = %v, want the sticky encode failure naming wal.EncodedUndo", err)
	}
	if l.IsDurable(tk) || l.DurableLSN() != 0 {
		t.Fatalf("unencodable batch acknowledged: durable LSN %d", l.DurableLSN())
	}
	if segs := segmentsOf(b); len(segs) != 0 {
		t.Fatalf("backend created segments %+v for an unencodable batch", segs)
	}
}

// TestFileBackendTornTail: a crash mid-write leaves a partial final line in
// the (only) segment; re-opening discards it, keeps every whole record, and
// appends cleanly after the truncation point.
func TestFileBackendTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	b, err := CreateSegmentedBackend(dir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := syncEncoded(b, []Record{
		{LSN: 1, Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)},
		{LSN: 2, Kind: Update, Txn: "A", Obj: "X", PrevLSN: 1, Op: adt.DepositOk(2)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("3\t0\tA\tX\t2\tdeposit"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rb, err := OpenSegmentedBackend(dir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rb.Replay(); len(got) != 2 {
		t.Fatalf("replayed %d records, want 2 (torn tail discarded)", len(got))
	}
	// The truncation leaves the file appendable at the record boundary.
	if err := syncEncoded(rb, []Record{{LSN: 3, Kind: CommitRec, Txn: "A", Obj: "X", PrevLSN: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := readSegments(t, dir); len(recs) != 3 || recs[2].Kind != CommitRec {
		t.Fatalf("after repair log = %+v", recs)
	}
}

// TestFileBackendRejectsMidFileCorruption: garbage before a segment's
// final line is corruption, not a torn tail.
func TestFileBackendRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("garbage line\n1\t1\tA\tX\t0\t\t\t\t-\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedBackend(dir, SegmentConfig{}); err == nil {
		t.Fatal("OpenSegmentedBackend accepted mid-file corruption")
	}
}

// TestFileBackendRejectsNineFieldRecord: every record line carries all ten
// fields. A nine-field line (the deps field missing) followed by a valid
// line is corruption, not an older format to accept.
func TestFileBackendRejectsNineFieldRecord(t *testing.T) {
	first, err := appendRecord(nil, Record{LSN: 1, Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(1)})
	if err != nil {
		t.Fatal(err)
	}
	second, err := appendRecord(nil, Record{LSN: 2, Kind: CommitRec, Txn: "A", Obj: "X", PrevLSN: 1})
	if err != nil {
		t.Fatal(err)
	}
	nine := string(first[:strings.LastIndex(string(first), "\t")]) + "\n"
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte(nine+string(second)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentedBackend(dir, SegmentConfig{}); err == nil {
		t.Fatal("OpenSegmentedBackend accepted a nine-field record before a valid one")
	}
}

// TestOpenReplaysFileBackend: wal.Open over a re-opened one-segment
// backend reconstructs the committed region — LSNs, chains, and contents —
// and new appends continue the durable log.
func TestOpenReplaysFileBackend(t *testing.T) {
	dir := t.TempDir()
	b, err := CreateSegmentedBackend(dir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	appendDurable(t, l, Record{Kind: Update, Txn: "A", Obj: "X", Op: adt.DepositOk(5)})
	appendDurable(t, l, Record{Kind: CommitRec, Txn: "A", Obj: "X"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rb, err := OpenSegmentedBackend(dir, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Open(Config{Backend: rb})
	if err != nil {
		t.Fatal(err)
	}
	if rl.Records() != 2 {
		t.Fatalf("replayed Records = %d, want 2", rl.Records())
	}
	replay := replayed(t, rl)
	if lastLSN(replay, "A") != 2 {
		t.Fatalf("chain head of A = %d, want 2", lastLSN(replay, "A"))
	}
	chain := chainOf(replay, "A")
	if len(chain) != 2 || chain[0].Kind != CommitRec || chain[0].PrevLSN != 1 {
		t.Fatalf("replayed chain = %+v", chain)
	}
	lsn := appendDurable(t, rl, Record{Kind: Update, Txn: "B", Obj: "X", Op: adt.DepositOk(1)})
	if lsn != 3 {
		t.Fatalf("post-replay append got LSN %d, want 3", lsn)
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	recs := readSegments(t, dir)
	if len(recs) != 3 {
		t.Fatalf("durable log has %d records, want 3", len(recs))
	}
	if !reflect.DeepEqual(recs[:2], replay) {
		t.Fatalf("durable log %+v does not begin with the replay %+v", recs, replay)
	}
}
