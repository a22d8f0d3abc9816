package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/spec"
)

// Backend is the durability seam beneath the group-commit flusher: Sync is
// called once per sequenced batch, with records in LSN order, and must not
// return until the batch is as durable as the backend provides. Commit
// acknowledgements are withheld until Sync returns. Sync is never called
// concurrently (the flush lock serializes batches).
type Backend interface {
	Sync(records []Record) error
	Close() error
}

// Replayer is implemented by backends that can hand back the records that
// survived a previous incarnation (a re-opened file backend). Open loads
// replayed records into the committed region before accepting new appends.
type Replayer interface {
	Replay() []Record
}

// Truncator is implemented by backends that can discard a durable prefix
// of the log — the storage-reclamation half of checkpointing.
// Log.TruncateBefore calls it after dropping the in-memory prefix; the
// call must be atomic with respect to crashes (a crash mid-truncation
// leaves either the old log or the truncated log, never a torn mix), which
// the file backend provides by rewriting into a temporary file and
// renaming it over the log, and the segmented backend by unlinking whole
// segments. The returned TruncateStats expose the storage cost of the
// operation (rewrite bytes vs segments unlinked) so the two strategies can
// be compared directly; Log.TruncateBefore accumulates them.
type Truncator interface {
	TruncateBefore(lsn LSN) (TruncateStats, error)
}

// EncodedUndo is an undo token in its durable string form. Producers that
// need their tokens to survive a file-backend round trip stage records
// with EncodedUndo (see adt.UndoTokenCodec and recovery.UndoLog);
// recovery.Restart hands the string back to the machine's decoder.
type EncodedUndo string

// Discard is the in-memory backend: batches are sequenced but never leave
// process memory — the log's historical behavior, and the default.
var Discard Backend = discard{}

type discard struct{}

func (discard) Sync([]Record) error { return nil }
func (discard) Close() error        { return nil }

// LatencyBackend simulates a storage device with a fixed per-sync latency
// (an fsync cost model), optionally delegating to an inner backend after
// the delay. It makes the group-commit trade-off measurable: batch
// interval buys fewer, larger syncs at the price of commit latency.
type LatencyBackend struct {
	delay time.Duration
	inner Backend
	syncs atomic.Int64
	recs  atomic.Int64
}

// NewLatencyBackend builds a latency-simulating backend; inner may be nil.
func NewLatencyBackend(delay time.Duration, inner Backend) *LatencyBackend {
	return &LatencyBackend{delay: delay, inner: inner}
}

// Sync implements Backend.
func (b *LatencyBackend) Sync(records []Record) error {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.syncs.Add(1)
	b.recs.Add(int64(len(records)))
	if b.inner != nil {
		return b.inner.Sync(records)
	}
	return nil
}

// Close implements Backend.
func (b *LatencyBackend) Close() error {
	if b.inner != nil {
		return b.inner.Close()
	}
	return nil
}

// Syncs returns the number of Sync calls served.
func (b *LatencyBackend) Syncs() int64 { return b.syncs.Load() }

// SyncedRecords returns the total records synced (SyncedRecords/Syncs is
// the mean durable batch size).
func (b *LatencyBackend) SyncedRecords() int64 { return b.recs.Load() }

// FileBackend encodes each batch to an append-only file and fsyncs it —
// real durability. A crashed log is recovered by OpenFileBackend, which
// scans the surviving records (discarding a torn tail from a crash
// mid-write) and replays them into a fresh Log via wal.Open.
type FileBackend struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	replay []Record
	closed bool
	syncs  atomic.Int64
	// bytes is the durable log size: the exact encoded bytes currently in
	// the file (seeded from the clean scan on reopen, advanced per append,
	// reset by truncation). It is what Log.Bytes must agree with.
	bytes atomic.Int64
}

// CreateFileBackend creates (or truncates) the file at path and returns an
// empty file backend.
func CreateFileBackend(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create file backend: %w", err)
	}
	return &FileBackend{f: f, path: path}, nil
}

// OpenFileBackend re-opens an existing log file after a crash: it scans
// the surviving records, truncates any torn tail (a partially written
// final record), and positions the backend to append after the last whole
// record. The scanned records are available through Replay, so
// wal.Open(Config{Backend: b}) reconstructs the durable log.
func OpenFileBackend(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open file backend: %w", err)
	}
	recs, clean, err := scanFileLog(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(clean); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(clean, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	b := &FileBackend{f: f, path: path, replay: recs}
	b.bytes.Store(clean)
	return b, nil
}

// ReadFileLog decodes the records of a log file without opening it for
// appending (diagnostics, tests). A torn tail is silently discarded.
func ReadFileLog(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, _, err := scanFileLog(f)
	return recs, err
}

// Path returns the backing file path.
func (b *FileBackend) Path() string { return b.path }

// Replay implements Replayer: the records that survived the crash, in LSN
// order.
func (b *FileBackend) Replay() []Record { return b.replay }

// Syncs returns the number of batches fsynced.
func (b *FileBackend) Syncs() int64 { return b.syncs.Load() }

// DurableBytes returns the exact number of encoded log bytes currently in
// the backing file — the ground truth the Log.Bytes accounting is asserted
// against.
func (b *FileBackend) DurableBytes() int64 { return b.bytes.Load() }

// Sync implements Backend: encode the batch, write it in one call, and
// fsync. The whole batch is encoded before any byte is written, so an
// unencodable record rejects the batch atomically — a partial batch on
// disk would otherwise surface after the next successful sync as an LSN
// gap that OpenFileBackend must treat as corruption.
func (b *FileBackend) Sync(records []Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("wal: sync on closed file backend %s", b.path)
	}
	var batch strings.Builder
	for _, r := range records {
		line, err := encodeRecord(r)
		if err != nil {
			return err
		}
		batch.WriteString(line)
	}
	if _, err := b.f.WriteString(batch.String()); err != nil {
		return fmt.Errorf("wal: write %s: %w", b.path, err)
	}
	if err := b.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", b.path, err)
	}
	b.bytes.Add(int64(batch.Len()))
	b.syncs.Add(1)
	return nil
}

// TruncateBefore implements Truncator: rewrite the file keeping only the
// records with LSN at or above lsn, atomically. The surviving suffix is
// written to a sibling temporary file, fsynced, and renamed over the log —
// a crash at any point leaves a file OpenFileBackend can scan (either the
// old log or the complete truncated one), never a torn mix. The Log layer
// guarantees lsn never exceeds the durable watermark plus one, so every
// record the rewrite is asked to keep is present in the file. The returned
// stats record the rewrite cost — every surviving byte is copied, the
// O(log bytes) price the segmented backend's unlink-based truncation
// avoids.
func (b *FileBackend) TruncateBefore(lsn LSN) (TruncateStats, error) {
	start := time.Now()
	var stats TruncateStats
	done := func(err error) (TruncateStats, error) {
		stats.WallNS = time.Since(start).Nanoseconds()
		return stats, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return done(fmt.Errorf("wal: truncate on closed file backend %s", b.path))
	}
	recs, _, err := scanFileLog(b.f)
	// Restore the append position immediately: the scan moved the shared
	// offset, and any early-error return below must leave the handle ready
	// for the next Sync.
	if _, serr := b.f.Seek(0, io.SeekEnd); serr != nil {
		return done(fmt.Errorf("wal: truncate %s: %w", b.path, serr))
	}
	if err != nil {
		return done(fmt.Errorf("wal: truncate %s: %w", b.path, err))
	}
	tmp := b.path + ".truncating"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return done(fmt.Errorf("wal: truncate %s: %w", b.path, err))
	}
	var suffix strings.Builder
	for _, r := range recs {
		if r.LSN < lsn {
			continue
		}
		line, err := encodeRecord(r)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return done(fmt.Errorf("wal: truncate %s: %w", b.path, err))
		}
		suffix.WriteString(line)
	}
	if _, err := f.WriteString(suffix.String()); err != nil {
		f.Close()
		os.Remove(tmp)
		return done(fmt.Errorf("wal: truncate %s: %w", b.path, err))
	}
	stats.BytesRewritten = int64(suffix.Len())
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return done(fmt.Errorf("wal: truncate %s: %w", b.path, err))
	}
	if err := os.Rename(tmp, b.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return done(fmt.Errorf("wal: truncate %s: %w", b.path, err))
	}
	b.bytes.Store(int64(suffix.Len()))
	// Make the rename durable before any further Sync acks against the new
	// inode: without the directory fsync a crash could resurrect the old
	// dirent — the pre-truncation inode, missing every post-truncation
	// batch — and lose acknowledged commits.
	if err := syncDir(filepath.Dir(b.path)); err != nil {
		f.Close()
		b.f = f
		b.closed = true
		return done(fmt.Errorf("wal: truncate %s: directory sync (backend now closed): %w", b.path, err))
	}
	// The old handle now points at the unlinked pre-truncation inode; swap
	// it for the renamed file, positioned to append. The rename is already
	// committed, so a failure positioning the new handle must not leave a
	// silently closed (or mis-positioned — appends at a wrong offset would
	// corrupt the log) handle behind: go explicitly fail-stop instead. The
	// durable truncated log is intact either way and replays on reopen.
	b.f.Close()
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		b.f = f
		b.closed = true
		return done(fmt.Errorf("wal: truncate %s: positioning renamed log (backend now closed): %w", b.path, err))
	}
	b.f = f
	return done(nil)
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Close implements Backend. Idempotent.
func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	if err := b.f.Sync(); err != nil {
		b.f.Close()
		return err
	}
	return b.f.Close()
}

// File format: one record per '\n'-terminated line of tab-separated
// fields — lsn, kind, txn, obj, prevLSN, invocation name, invocation args,
// response, undo, deps — with tabs/newlines/backslashes escaped inside
// string fields. The undo field is "-" for nil or "e" + the escaped
// EncodedUndo string; the deps field is "-" for none or "d" + the escaped
// JSON array of dependency TxnIDs. The format is append-only and
// self-delimiting, so a crash mid-write leaves at most one torn final
// line, which the scanner discards.

var fileEscaper = strings.NewReplacer("\\", "\\\\", "\t", "\\t", "\n", "\\n")
var fileUnescaper = strings.NewReplacer("\\\\", "\\", "\\t", "\t", "\\n", "\n")

func encodeRecord(r Record) (string, error) {
	var undo string
	switch u := r.Undo.(type) {
	case nil:
		undo = "-"
	case EncodedUndo:
		undo = "e" + fileEscaper.Replace(string(u))
	default:
		return "", fmt.Errorf("wal: file backend cannot encode undo token of type %T at LSN %d "+
			"(stage it as wal.EncodedUndo; see adt.UndoTokenCodec)", r.Undo, r.LSN)
	}
	deps := "-"
	if len(r.Deps) > 0 {
		js, err := json.Marshal(r.Deps)
		if err != nil {
			return "", fmt.Errorf("wal: encode deps at LSN %d: %w", r.LSN, err)
		}
		deps = "d" + fileEscaper.Replace(string(js))
	}
	return fmt.Sprintf("%d\t%d\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
		r.LSN, int(r.Kind),
		fileEscaper.Replace(string(r.Txn)),
		fileEscaper.Replace(string(r.Obj)),
		r.PrevLSN,
		fileEscaper.Replace(r.Op.Inv.Name),
		fileEscaper.Replace(r.Op.Inv.Args),
		fileEscaper.Replace(string(r.Op.Res)),
		undo, deps), nil
}

func decodeRecord(line string) (Record, error) {
	fields := strings.Split(line, "\t")
	if len(fields) != 10 {
		return Record{}, fmt.Errorf("wal: record has %d fields, want 10", len(fields))
	}
	lsn, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("wal: bad LSN %q", fields[0])
	}
	kind, err := strconv.Atoi(fields[1])
	if err != nil || kind < int(Update) || kind > int(DisciplineRec) {
		return Record{}, fmt.Errorf("wal: bad record kind %q", fields[1])
	}
	prev, err := strconv.ParseUint(fields[4], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("wal: bad PrevLSN %q", fields[4])
	}
	r := Record{
		LSN:     LSN(lsn),
		Kind:    RecordKind(kind),
		Txn:     history.TxnID(fileUnescaper.Replace(fields[2])),
		Obj:     history.ObjectID(fileUnescaper.Replace(fields[3])),
		PrevLSN: LSN(prev),
		Op: spec.Operation{
			Inv: spec.Invocation{
				Name: fileUnescaper.Replace(fields[5]),
				Args: fileUnescaper.Replace(fields[6]),
			},
			Res: spec.Response(fileUnescaper.Replace(fields[7])),
		},
	}
	switch undo := fields[8]; {
	case undo == "-":
	case strings.HasPrefix(undo, "e"):
		r.Undo = EncodedUndo(fileUnescaper.Replace(undo[1:]))
	default:
		return Record{}, fmt.Errorf("wal: bad undo field %q", undo)
	}
	switch deps := fields[9]; {
	case deps == "-":
	case strings.HasPrefix(deps, "d"):
		if err := json.Unmarshal([]byte(fileUnescaper.Replace(deps[1:])), &r.Deps); err != nil {
			return Record{}, fmt.Errorf("wal: bad deps field %q: %w", deps, err)
		}
	default:
		return Record{}, fmt.Errorf("wal: bad deps field %q", deps)
	}
	return r, nil
}

// scanFileLog reads records from the start of f, returning them with the
// byte offset of the end of the last whole record. A torn tail — a final
// line missing its newline or failing to decode — is discarded; a
// malformed line with further lines after it is corruption and errors.
func scanFileLog(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(f)
	var recs []Record
	var clean int64
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			// line (if any) has no terminator: torn tail, discard.
			return recs, clean, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("wal: scan log file: %w", err)
		}
		r, derr := decodeRecord(strings.TrimSuffix(line, "\n"))
		if derr != nil {
			// Only acceptable as the very last line (torn by a crash
			// mid-write that still got the newline out); peek ahead.
			if _, perr := br.ReadByte(); perr == io.EOF {
				return recs, clean, nil
			}
			return nil, 0, fmt.Errorf("wal: corrupt log record before offset %d: %w",
				clean+int64(len(line)), derr)
		}
		// A truncated log starts past LSN 1 (the first surviving record
		// names the base); from there LSNs must be contiguous.
		if r.LSN == 0 {
			return nil, 0, fmt.Errorf("wal: log file record with nil LSN")
		}
		if len(recs) > 0 && r.LSN != recs[len(recs)-1].LSN+1 {
			return nil, 0, fmt.Errorf("wal: log file LSN %d out of sequence (want %d)",
				r.LSN, recs[len(recs)-1].LSN+1)
		}
		recs = append(recs, r)
		clean += int64(len(line))
	}
}
