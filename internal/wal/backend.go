package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
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
// survived a previous incarnation (a re-opened segmented backend). Open loads
// replayed records into the committed region before accepting new appends.
type Replayer interface {
	Replay() []Record
}

// Truncator is implemented by backends that can discard a durable prefix
// of the log — the storage-reclamation half of checkpointing — and can do
// so only at certain boundaries. AlignTruncate returns the greatest
// truncation point at or below lsn the backend can realize exactly;
// Log.TruncateBefore aligns to it before dropping the in-memory prefix, so
// the retained in-memory log and the durable log stay identical, then
// calls TruncateBefore with the aligned point. TruncateBefore must be
// atomic with respect to crashes (a crash mid-truncation leaves a log
// reopen can scan, never a torn mix); the segmented backend gets this by
// unlinking whole segments. The returned TruncateStats expose the storage
// cost; Log.TruncateBefore accumulates them.
type Truncator interface {
	AlignTruncate(lsn LSN) LSN
	TruncateBefore(lsn LSN) (TruncateStats, error)
}

// EncodedUndo is an undo token in its durable string form. Producers that
// need their tokens to survive a durable-backend round trip stage records
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
// (an fsync cost model). It makes the group-commit trade-off measurable:
// batch interval buys fewer, larger syncs at the price of commit latency.
type LatencyBackend struct {
	delay time.Duration
	syncs atomic.Int64
	recs  atomic.Int64
}

// NewLatencyBackend builds a latency-simulating backend.
func NewLatencyBackend(delay time.Duration) *LatencyBackend {
	return &LatencyBackend{delay: delay}
}

// Sync implements Backend.
func (b *LatencyBackend) Sync(records []Record) error {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.syncs.Add(1)
	b.recs.Add(int64(len(records)))
	return nil
}

// Close implements Backend.
func (b *LatencyBackend) Close() error { return nil }

// Syncs returns the number of Sync calls served.
func (b *LatencyBackend) Syncs() int64 { return b.syncs.Load() }

// SyncedRecords returns the total records synced (SyncedRecords/Syncs is
// the mean durable batch size).
func (b *LatencyBackend) SyncedRecords() int64 { return b.recs.Load() }

// syncDir fsyncs a directory, making a file creation or removal inside it
// durable.
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

// Segment file format: one record per '\n'-terminated line of tab-separated
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
		return "", fmt.Errorf("wal: durable backend cannot encode undo token of type %T at LSN %d "+
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
