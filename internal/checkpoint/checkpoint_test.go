package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adt"
	"repro/internal/wal"
)

func sampleSnapshot(id string, frontier int) *Snapshot {
	return &Snapshot{
		ID:       id,
		Frontier: wal.LSN(frontier),
		Objects: []ObjectSnapshot{
			{
				Obj:       "acct0",
				MarkerLSN: wal.LSN(frontier + 1),
				State:     "1000",
				Active: []ActiveTxn{
					{Txn: "T0001", Ops: []PendingOp{{Op: adt.DepositOk(3)}}},
				},
			},
		},
	}
}

// TestFileStoreRoundTrip: save/reload through the file store preserves the
// snapshot, newer snapshots supersede (and garbage-collect) older ones,
// and a reopened store continues the sequence.
func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := fs.Latest(); err != nil || s != nil {
		t.Fatalf("empty store Latest = %v, %v", s, err)
	}
	if err := fs.Save(sampleSnapshot("CKPT0001", 10)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Save(sampleSnapshot("CKPT0002", 20)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.ID != "CKPT0002" || got.Frontier != 20 {
		t.Fatalf("Latest = %+v, want CKPT0002 at frontier 20", got)
	}
	if len(got.Objects) != 1 || got.Objects[0].Active[0].Ops[0].Op != adt.DepositOk(3) {
		t.Fatalf("object snapshot did not survive the round trip: %+v", got.Objects)
	}
	ents, _ := os.ReadDir(dir)
	files := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ckptSuffix {
			files++
		}
	}
	if files != 1 {
		t.Fatalf("store holds %d snapshot files, want 1 (older superseded)", files)
	}

	re, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Save(sampleSnapshot("CKPT0003", 30)); err != nil {
		t.Fatal(err)
	}
	got, err = re.Latest()
	if err != nil || got == nil || got.ID != "CKPT0003" {
		t.Fatalf("reopened store Latest = %+v, %v", got, err)
	}
	if got.Seq <= 2 {
		t.Fatalf("reopened store did not continue the sequence: seq %d", got.Seq)
	}
}

// TestTornSnapshotIgnored: a torn snapshot file — whether a leftover .tmp
// the rename never promoted or a renamed file with truncated contents —
// never becomes authoritative; Latest falls back to the newest complete
// snapshot.
func TestTornSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save(sampleSnapshot("CKPT0001", 10)); err != nil {
		t.Fatal(err)
	}
	// A crash mid-save: the temporary exists, the rename never happened.
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-000002.ckpt.tmp"), []byte(`{"id":"CK`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A sharper failure: the rename happened but the contents are torn.
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-000003.ckpt"), []byte(`{"id":"CKPT0003","fr`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.ID != "CKPT0001" {
		t.Fatalf("Latest = %+v, want the previous complete CKPT0001", got)
	}
}

// TestCrashHookDropsSave: with the crash hook firing, Save reports success
// (the dying machine's view) but persists nothing.
func TestCrashHookDropsSave(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save(sampleSnapshot("CKPT0001", 10)); err != nil {
		t.Fatal(err)
	}
	fs.SetCrashHook(func(*Snapshot) bool { return true })
	if err := fs.Save(sampleSnapshot("CKPT0002", 20)); err != nil {
		t.Fatalf("crashed save must still report success, got %v", err)
	}
	got, err := fs.Latest()
	if err != nil || got == nil || got.ID != "CKPT0001" {
		t.Fatalf("Latest = %+v, %v; want the pre-crash CKPT0001", got, err)
	}
}
