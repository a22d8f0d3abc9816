package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/history"
	"repro/internal/spec"
)

// Backend is the durability seam beneath group-commit flush rounds. Each
// flush round hands it one sequenced batch in two steps:
//
//   - Write appends the batch, with records in LSN order and frame holding
//     their durable encoding (the lines appendRecord writes, in the same
//     order). Writes are serialized by the log's flush lock and arrive in
//     LSN order; records and frame are valid only during the call (the log
//     reuses their storage for the next round). A backend that stores bytes
//     writes frame as is, and one that does not ignores it. A written batch
//     need not be durable yet.
//   - Sync makes durable every batch whose Write returned before Sync was
//     called. It runs outside the flush lock, so it may overlap later
//     Writes and other Syncs: round k+1 is written and synced while round
//     k's Sync is still running.
//
// The log acknowledges a round only after its Sync and every earlier
// round's have returned nil, and applies round outcomes strictly in round
// order, so a backend need not order the completions of overlapping Syncs.
// It must, however, not let one Sync swallow another's failure: Linux
// reports a write-back error once per open file description, so
// overlapping fsyncs through one description could hand round k's error to
// round k+1 and return nil for round k (the segmented backend gives each
// running fsync its own description). After any failure — of Write, Sync
// or sealing — the backend must keep failing the Syncs of batches it
// cannot vouch for.
type Backend interface {
	Write(records []Record, frame []byte) error
	Sync() error
	Close() error
}

// Replayer is implemented by backends that can hand back the records that
// survived a previous incarnation (a re-opened segmented backend), in LSN
// order, with the total bytes they were read from. Replay hands the slice
// over: the backend keeps no reference. Open verifies the records before
// accepting new appends, counts their bytes in Stats.Bytes, and keeps the
// slice only until restart takes it (Log.TakeReplay).
type Replayer interface {
	Replay() (records []Record, bytes int64)
}

// Truncator is implemented by backends that can discard a durable prefix
// of the log — the storage-reclamation half of checkpointing — and can do
// so only at certain boundaries. AlignTruncate returns the greatest
// truncation point at or below lsn the backend can realize exactly;
// Log.TruncateBefore aligns to it before advancing its base, so the live
// log's base and the durable log's first LSN agree, then calls
// TruncateBefore with the aligned point. TruncateBefore must be atomic
// with respect to crashes (a crash mid-truncation leaves a log reopen can
// scan, never a torn mix); the segmented backend gets this by unlinking
// whole segments. The returned TruncateStats expose the storage cost,
// BytesUnlinked included (Stats.Bytes falls by it); Log.TruncateBefore
// accumulates them.
type Truncator interface {
	AlignTruncate(lsn LSN) LSN
	TruncateBefore(lsn LSN) (TruncateStats, error)
}

// EncodedUndo is an undo token in its durable string form. Producers that
// need their tokens to survive a durable-backend round trip stage records
// with EncodedUndo (see adt.UndoTokenCodec and recovery.UndoLog);
// restart hands the string back to the machine's decoder.
type EncodedUndo string

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
//
// appendRecord writes that format with strconv appends and run-copying
// escapes, so encoding a record into a buffer with room allocates nothing.
// The golden-byte tests pin its output to the format byte for byte.

var fileUnescaper = strings.NewReplacer("\\\\", "\\", "\\t", "\t", "\\n", "\n")

// unescapeField inverts appendEscaped. A field with no backslash — almost
// every field — is returned as is, without a copy.
func unescapeField(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	return fileUnescaper.Replace(s)
}

// appendRecord appends r's durable encoding — one whole line — to dst. A
// record whose undo token is not an EncodedUndo cannot be made durable; the
// error names the fix, and dst is returned unchanged.
func appendRecord(dst []byte, r Record) ([]byte, error) {
	switch r.Undo.(type) {
	case nil, EncodedUndo:
	default:
		return dst, fmt.Errorf("wal: durable backend cannot encode undo token of type %T at LSN %d "+
			"(stage it as wal.EncodedUndo; see adt.UndoTokenCodec)", r.Undo, r.LSN)
	}
	start := len(dst)
	dst = strconv.AppendUint(dst, uint64(r.LSN), 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(r.Kind), 10)
	dst = append(dst, '\t')
	dst = appendEscaped(dst, string(r.Txn))
	dst = append(dst, '\t')
	dst = appendEscaped(dst, string(r.Obj))
	dst = append(dst, '\t')
	dst = strconv.AppendUint(dst, uint64(r.PrevLSN), 10)
	dst = append(dst, '\t')
	dst = appendEscaped(dst, r.Op.Inv.Name)
	dst = append(dst, '\t')
	dst = appendEscaped(dst, r.Op.Inv.Args)
	dst = append(dst, '\t')
	dst = appendEscaped(dst, string(r.Op.Res))
	dst = append(dst, '\t')
	if u, ok := r.Undo.(EncodedUndo); ok {
		dst = append(dst, 'e')
		dst = appendEscaped(dst, string(u))
	} else {
		dst = append(dst, '-')
	}
	dst = append(dst, '\t')
	dst, err := appendDeps(dst, r.Deps)
	if err != nil {
		return dst[:start], fmt.Errorf("wal: encode deps at LSN %d: %w", r.LSN, err)
	}
	return append(dst, '\n'), nil
}

// appendEscaped appends s with backslashes, tabs, and newlines escaped,
// copying each run between them unchanged.
func appendEscaped(dst []byte, s string) []byte {
	run := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '\\':
			esc = `\\`
		case '\t':
			esc = `\t`
		case '\n':
			esc = `\n`
		default:
			continue
		}
		dst = append(dst, s[run:i]...)
		dst = append(dst, esc...)
		run = i + 1
	}
	return append(dst, s[run:]...)
}

// appendDeps appends the deps field: "-" for none, else "d" + the escaped
// JSON array of the IDs. IDs made only of bytes encoding/json emits
// verbatim are appended by hand; any other byte (a quote, a backslash, a
// control or HTML-sensitive character, non-ASCII) sends the whole array
// through json.Marshal, so the bytes are json.Marshal's in every case.
func appendDeps(dst []byte, deps []history.TxnID) ([]byte, error) {
	if len(deps) == 0 {
		return append(dst, '-'), nil
	}
	dst = append(dst, 'd')
	for _, d := range deps {
		if !jsonVerbatim(string(d)) {
			js, err := json.Marshal(deps)
			if err != nil {
				return dst, err
			}
			return appendEscaped(dst, string(js)), nil
		}
	}
	dst = append(dst, '[')
	for i, d := range deps {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = append(dst, d...)
		dst = append(dst, '"')
	}
	return append(dst, ']'), nil
}

// jsonVerbatim reports whether json.Marshal encodes s as itself between
// quotes: printable ASCII other than '"', '\\', '<', '>' and '&'. Such a
// string also holds no byte the line format escapes.
func jsonVerbatim(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e:
			return false
		case c == '"' || c == '\\' || c == '<' || c == '>' || c == '&':
			return false
		}
	}
	return true
}

func decodeRecord(line string) (Record, error) {
	if n := strings.Count(line, "\t") + 1; n != 10 {
		return Record{}, fmt.Errorf("wal: record has %d fields, want 10", n)
	}
	var fields [10]string
	for i := range fields[:9] {
		tab := strings.IndexByte(line, '\t')
		fields[i], line = line[:tab], line[tab+1:]
	}
	fields[9] = line
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
		Txn:     history.TxnID(unescapeField(fields[2])),
		Obj:     history.ObjectID(unescapeField(fields[3])),
		PrevLSN: LSN(prev),
		Op: spec.Operation{
			Inv: spec.Invocation{
				Name: unescapeField(fields[5]),
				Args: unescapeField(fields[6]),
			},
			Res: spec.Response(unescapeField(fields[7])),
		},
	}
	switch undo := fields[8]; {
	case undo == "-":
	case strings.HasPrefix(undo, "e"):
		r.Undo = EncodedUndo(unescapeField(undo[1:]))
	default:
		return Record{}, fmt.Errorf("wal: bad undo field %q", undo)
	}
	switch deps := fields[9]; {
	case deps == "-":
	case strings.HasPrefix(deps, "d"):
		// Unmarshal into a local, so that r does not escape to the heap.
		var ids []history.TxnID
		if err := json.Unmarshal([]byte(unescapeField(deps[1:])), &ids); err != nil {
			return Record{}, fmt.Errorf("wal: bad deps field %q: %w", deps, err)
		}
		r.Deps = ids
	default:
		return Record{}, fmt.Errorf("wal: bad deps field %q", deps)
	}
	return r, nil
}

// scanFileLog reads records from the start of f, returning them with the
// byte offset of the end of the last whole record — the bytes they were
// read from. A torn tail — a final line missing its newline or failing to
// decode — is discarded; a malformed line with further lines after it is
// corruption and errors.
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
