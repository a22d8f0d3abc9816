// Package checkpoint defines the fuzzy-checkpoint artifact and its durable
// stores: the bounded-restart half of the recovery story. The durable log
// otherwise grows without bound and restart cost is proportional to run
// length rather than to the recovery discipline — the coupling
// checkpoints break.
//
// A Snapshot is taken fuzzily — object by object, without stopping the
// world — by the transaction engine (see txn.Engine.Checkpoint): for every
// undo-log object it captures, under that object's latch, the current
// update-in-place state together with the in-flight transaction table (each
// active transaction's pending undo records at that object), and stages a
// wal.CheckpointRec marker whose LSN splits the object's log records
// exactly into "reflected in the capture" and "replay at restart". The
// captured state is deliberately the dirty state plus the undo table, not
// the committed state alone: update-in-place replay is response-checked
// against the live execution, so restart must resume from precisely the
// state the suffix records executed against; the committed state is always
// recoverable from the pair by applying the table's undo records, which is
// what a checkpoint-seeded restart does to the losers.
//
// The checkpoint's correctness contract (enforced by the engine, proved by
// the crash sweeps in internal/recovery):
//
//   - Frontier is the LSN of a begin marker staged before any capture, so
//     every record a restart could need — any captured object's marker, any
//     in-table transaction's decision record, any record of an object
//     registered mid-checkpoint — has an LSN at or past it. The log may be
//     truncated before Frontier once the snapshot is durable.
//   - A snapshot is saved only after the WAL's durable watermark covers its
//     last marker, so every effect baked into a captured state is durable,
//     and (via the engine's commit gate) every transaction whose effects
//     are captured without undo records has a durable transaction-level
//     commit record — no unsynced loser can ever be frozen into a
//     checkpoint.
//   - Saving is atomic (write-temp-then-rename in the file store): a crash
//     mid-checkpoint leaves the previous snapshot authoritative, and a torn
//     file is ignored on reopen.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/wal"
)

// PendingOp is one applied-but-uncommitted update of an in-flight
// transaction at capture time: the operation plus its undo token in
// durable encoded form (see adt.UndoTokenCodec). Restart seeds the
// object's undo table from these, so a transaction that never produces
// another log record — its client died with the prefix — is still fully
// undoable from the snapshot alone.
type PendingOp struct {
	Op spec.Operation `json:"op"`
	// Undo is the encoded undo token; HasUndo distinguishes "no token
	// needed" (purely logical inverse) from an empty encoding.
	Undo    string `json:"undo,omitempty"`
	HasUndo bool   `json:"has_undo,omitempty"`
}

// ActiveTxn is one in-flight transaction's entry in an object's captured
// transaction table: its pending updates in apply order.
type ActiveTxn struct {
	Txn history.TxnID `json:"txn"`
	Ops []PendingOp   `json:"ops"`
}

// ObjectSnapshot is one object's capture: the update-in-place state as of
// the object's marker record, plus the in-flight transaction table at that
// instant. Restart seeds the object from State and Active and replays only
// log records with LSN past MarkerLSN.
type ObjectSnapshot struct {
	Obj       history.ObjectID `json:"obj"`
	MarkerLSN wal.LSN          `json:"marker_lsn"`
	// State is the machine's canonical encoding of the captured value
	// (decoded at restart via adt.ValueCodec).
	State  string      `json:"state"`
	Active []ActiveTxn `json:"active,omitempty"`
}

// Snapshot is one complete fuzzy checkpoint.
type Snapshot struct {
	// ID is the engine-assigned checkpoint identifier; it is also the Txn
	// field of the checkpoint's wal.CheckpointRec markers.
	ID string `json:"id"`
	// Seq orders snapshots within a store (assigned by Save).
	Seq int `json:"seq"`
	// Frontier is the begin marker's LSN: restart's winner scan needs only
	// records at or past it, and the log may be truncated before it.
	Frontier wal.LSN `json:"frontier"`
	// DurableLSN is the WAL's durable watermark when the snapshot
	// completed (diagnostics; always at or past the last marker).
	DurableLSN wal.LSN `json:"durable_lsn"`
	// TruncatedBefore is the truncation point the engine actually realized
	// after this checkpoint — Frontier clamped to the durable watermark and
	// aligned down to the backend's truncation boundary (a segment start,
	// for the segmented backend; see wal.Truncator). Zero when
	// truncation was disabled or nothing was reclaimed. Diagnostics: the
	// reopened log's base always equals the newest snapshot's aligned
	// point, never the raw frontier.
	TruncatedBefore wal.LSN `json:"truncated_before,omitempty"`
	// Discipline records the logging discipline of the engine that took the
	// snapshot (wal.DisciplineRedo for a redo-only engine; empty means undo
	// logging). Restart rejects a snapshot whose discipline contradicts the
	// log's marker — a mixed-discipline handoff must fail loudly.
	Discipline string           `json:"discipline,omitempty"`
	Objects    []ObjectSnapshot `json:"objects"`
}

// Store is the durability seam the engine saves snapshots through. Save
// must be atomic: a reader (FileStore.Latest, possibly in a different
// process after a crash) observes either the previous snapshot or the
// complete new one, never a torn mix.
type Store interface {
	// Save persists s as the newest snapshot, assigning s.Seq.
	Save(s *Snapshot) error
}

// CrashHook simulates a machine dying before a checkpoint reaches durable
// storage: when it returns true, Save reports success — the dying process
// believes its checkpoint completed — but nothing is persisted, mirroring
// the wal.CrashPoint contract under which acknowledgements continue while
// writes are lost. Crash harnesses share one flag between both hooks so
// the WAL and the checkpoint store die at the same instant.
type CrashHook func(s *Snapshot) bool

// FileStore persists each snapshot as one JSON file in a directory,
// written to a temporary sibling and renamed into place — atomic on POSIX
// rename semantics, so a crash mid-save leaves the previous snapshot file
// untouched and at worst a stale temporary that Latest never considers. A
// renamed file that still fails to parse (torn by a crash that beat the
// rename's durability) is skipped, falling back to the next-newest
// complete snapshot.
type FileStore struct {
	mu    sync.Mutex
	dir   string
	seq   int
	crash CrashHook
}

const (
	ckptSuffix = ".ckpt"
	ckptPrefix = "checkpoint-"
)

// OpenFileStore opens (creating if needed) a directory store. Existing
// snapshots are retained; new saves continue the sequence.
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store %s: %w", dir, err)
	}
	fs := &FileStore{dir: dir}
	seqs, err := fs.sequences()
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		fs.seq = seqs[len(seqs)-1]
	}
	return fs, nil
}

// SetCrashHook installs the crash-injection hook (tests only).
func (f *FileStore) SetCrashHook(h CrashHook) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crash = h
}

// sequences lists the sequence numbers of the snapshot files present,
// ascending. Callers hold f.mu or have exclusive access.
func (f *FileStore) sequences() ([]int, error) {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan store %s: %w", f.dir, err)
	}
	var seqs []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix))
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Ints(seqs)
	return seqs, nil
}

func (f *FileStore) pathOf(seq int) string {
	return filepath.Join(f.dir, fmt.Sprintf("%s%06d%s", ckptPrefix, seq, ckptSuffix))
}

// Save implements Store: marshal, write to a temporary file, fsync, rename
// into place, then delete older snapshots (the newest complete one is
// always preserved until its successor is fully durable).
func (f *FileStore) Save(s *Snapshot) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	s.Seq = f.seq
	if f.crash != nil && f.crash(s) {
		return nil // the dying machine believes the save succeeded
	}
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s: %w", s.ID, err)
	}
	final := f.pathOf(s.Seq)
	tmp := final + ".tmp"
	w, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", s.ID, err)
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: save %s: %w", s.ID, err)
	}
	if err := w.Sync(); err != nil {
		w.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: save %s: %w", s.ID, err)
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: save %s: %w", s.ID, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: save %s: %w", s.ID, err)
	}
	// Make the rename itself durable before anything depends on it. Two
	// dependents: the caller (the engine truncates the WAL on the strength
	// of this snapshot, so an un-durable rename must surface as a failed
	// Save — truncating against a snapshot a crash could un-rename would
	// leave an unreplayable truncated log with no seed), and the cleanup
	// below (a crash must find either the old snapshot set or the new
	// file, never a directory whose only complete snapshot was unlinked
	// while the new entry was still in volatile metadata).
	d, err := os.Open(f.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: save %s: directory sync: %w", s.ID, err)
	}
	derr := d.Sync()
	if cerr := d.Close(); derr == nil {
		derr = cerr
	}
	if derr != nil {
		return fmt.Errorf("checkpoint: save %s: directory sync: %w", s.ID, derr)
	}
	// Older snapshots are now superseded by a complete durable one.
	seqs, err := f.sequences()
	if err != nil {
		return nil // the save itself succeeded; cleanup is best-effort
	}
	for _, n := range seqs {
		if n < s.Seq {
			os.Remove(f.pathOf(n))
		}
	}
	return nil
}

// Latest returns the newest snapshot whose file parses completely, or nil
// if none exists. Torn or unparsable files are skipped — a checkpoint the
// crash interrupted never becomes authoritative.
func (f *FileStore) Latest() (*Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	seqs, err := f.sequences()
	if err != nil {
		return nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(f.pathOf(seqs[i]))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("checkpoint: read snapshot %d: %w", seqs[i], err)
		}
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			continue // torn snapshot: previous one is authoritative
		}
		return &s, nil
	}
	return nil, nil
}
