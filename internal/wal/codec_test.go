package wal

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
)

// Codec tests: the record encoder's bytes are pinned to the format's
// golden lines, decoding inverts encoding, and FuzzDecodeRecord holds the
// decoder to "reject, or re-encode to the same record".

// codecRecords exercise every field of the line format: the largest LSNs,
// tabs, newlines and backslashes in every string field and in an
// EncodedUndo, every record kind, and deps on both sides of appendDeps'
// hand-appended path — verbatim IDs, and IDs with a quote, HTML-sensitive
// bytes, non-ASCII, escapes, DEL, U+2028, invalid UTF-8 and the empty ID,
// which go through json.Marshal.
func codecRecords() []Record {
	awk := "a\tb\nc\\d"
	return []Record{
		{LSN: 1, Kind: Update, Txn: "T0001", Obj: "acct-7", Op: spec.Operation{Inv: spec.Invocation{Name: "deposit", Args: "5"}, Res: "ok"}},
		{LSN: 18446744073709551615, Kind: CompensationRec, Txn: history.TxnID("T" + awk), Obj: history.ObjectID("o" + awk), PrevLSN: 18446744073709551614,
			Op: spec.Operation{Inv: spec.Invocation{Name: "n" + awk, Args: "a" + awk}, Res: spec.Response("r" + awk)}, Undo: EncodedUndo("u" + awk + "\\t\\\\")},
		{LSN: 42, Kind: Update, Txn: "T0002", Obj: "kv", PrevLSN: 40, Op: spec.Operation{Inv: spec.Invocation{Name: "put", Args: "k=v"}, Res: "ok"}, Undo: EncodedUndo("")},
		{LSN: 43, Kind: CommitRec, Txn: "T0002", Obj: "kv", PrevLSN: 42},
		{LSN: 44, Kind: AbortRec, Txn: "T0003"},
		{LSN: 45, Kind: TxnCommitRec, Txn: "T0004", PrevLSN: 3, Deps: []history.TxnID{"T0001", "T0002", "CKPT0001"}},
		{LSN: 46, Kind: TxnCommitRec, Txn: "T0005", Deps: []history.TxnID{"T0001", `q"uote`, "lt<", "gt>", "amp&", "é", "日本", "back\\slash", "tab\tnl\n", "del\x7f", "ls\u2028"}},
		{LSN: 47, Kind: TxnCommitRec, Txn: "T0006", Deps: []history.TxnID{"bad\xffutf8"}},
		{LSN: 48, Kind: CheckpointRec, Txn: "CKPT0001", Obj: "acct-1", PrevLSN: 47},
		{LSN: 49, Kind: RedoRec, Txn: "T0007", Obj: "acct-2", Op: spec.Operation{Inv: spec.Invocation{Name: "withdraw", Args: "-3"}, Res: "ok"}},
		{LSN: 50, Kind: DisciplineRec, Op: DisciplineMarker(DisciplineRedo).Op},
		{LSN: 51, Kind: TxnCommitRec, Txn: "T0008", Deps: []history.TxnID{""}},
	}
}

// TestAppendRecordGolden: appendRecord writes, byte for byte, the lines
// the format's previous fmt/strings.Replacer/json.Marshal encoder wrote for
// the same records (captured from it), so segments written before and
// after the encoder changed are indistinguishable.
func TestAppendRecordGolden(t *testing.T) {
	golden := []string{
		"1\t0\tT0001\tacct-7\t0\tdeposit\t5\tok\t-\t-\n",
		"18446744073709551615\t3\tTa\\tb\\nc\\\\d\toa\\tb\\nc\\\\d\t18446744073709551614\tna\\tb\\nc\\\\d\taa\\tb\\nc\\\\d\tra\\tb\\nc\\\\d\teua\\tb\\nc\\\\d\\\\t\\\\\\\\\t-\n",
		"42\t0\tT0002\tkv\t40\tput\tk=v\tok\te\t-\n",
		"43\t1\tT0002\tkv\t42\t\t\t\t-\t-\n",
		"44\t2\tT0003\t\t0\t\t\t\t-\t-\n",
		"45\t4\tT0004\t\t3\t\t\t\t-\td[\"T0001\",\"T0002\",\"CKPT0001\"]\n",
		"46\t4\tT0005\t\t0\t\t\t\t-\td[\"T0001\",\"q\\\\\"uote\",\"lt\\\\u003c\",\"gt\\\\u003e\",\"amp\\\\u0026\",\"é\",\"日本\",\"back\\\\\\\\slash\",\"tab\\\\tnl\\\\n\",\"del\x7f\",\"ls\\\\u2028\"]\n",
		"47\t4\tT0006\t\t0\t\t\t\t-\td[\"bad\\\\ufffdutf8\"]\n",
		"48\t5\tCKPT0001\tacct-1\t47\t\t\t\t-\t-\n",
		"49\t6\tT0007\tacct-2\t0\twithdraw\t-3\tok\t-\t-\n",
		"50\t7\t\t\t0\tdiscipline\tredo\t\t-\t-\n",
		"51\t4\tT0008\t\t0\t\t\t\t-\td[\"\"]\n",
	}
	recs := codecRecords()
	if len(recs) != len(golden) {
		t.Fatalf("%d records, %d golden lines", len(recs), len(golden))
	}
	var frame []byte
	for i, r := range recs {
		line, err := appendRecord(nil, r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(line) != golden[i] {
			t.Errorf("record %d encoded as\n  %q\nwant\n  %q", i, line, golden[i])
		}
		// Appending into a shared frame gives the same bytes.
		if frame, err = appendRecord(frame, r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := string(frame), strings.Join(golden, ""); got != want {
		t.Errorf("frame of all records differs from the golden lines joined")
	}
}

// TestAppendDepsMatchesJSON: the deps field is "d" + the escaped
// json.Marshal of the IDs for IDs holding any single byte value, so the
// hand-appended path is taken exactly where json.Marshal would emit the ID
// verbatim.
func TestAppendDepsMatchesJSON(t *testing.T) {
	for c := 0; c < 256; c++ {
		deps := []history.TxnID{"T0001", history.TxnID("x" + string([]byte{byte(c)}) + "y")}
		js, err := json.Marshal(deps)
		if err != nil {
			t.Fatal(err)
		}
		want := "d" + strings.NewReplacer("\\", "\\\\", "\t", "\\t", "\n", "\\n").Replace(string(js))
		got, err := appendDeps(nil, deps)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("deps with byte %#x encoded as %q, want %q", c, got, want)
		}
	}
}

// TestAppendRecordRoundTrip: decodeRecord inverts appendRecord on every
// codec record whose deps are valid UTF-8 (json.Marshal replaces invalid
// bytes, so that one decodes to U+FFFD by design).
func TestAppendRecordRoundTrip(t *testing.T) {
	for i, r := range codecRecords() {
		line, err := appendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRecord(strings.TrimSuffix(string(line), "\n"))
		if err != nil {
			t.Fatalf("record %d: decode %q: %v", i, line, err)
		}
		if r.LSN == 47 {
			if want := []history.TxnID{"bad\ufffdutf8"}; !reflect.DeepEqual(got.Deps, want) {
				t.Fatalf("invalid UTF-8 dep decoded as %q, want %q", got.Deps, want)
			}
			continue
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("record %d round-tripped as %+v, want %+v", i, got, r)
		}
	}
}

// TestAppendRecordErrorLeavesDst: an unencodable record appends nothing,
// so a frame built before it is intact.
func TestAppendRecordErrorLeavesDst(t *testing.T) {
	dst := []byte("prefix")
	got, err := appendRecord(dst, Record{LSN: 9, Kind: Update, Undo: 17})
	if err == nil || !strings.Contains(err.Error(), "EncodedUndo") {
		t.Fatalf("err = %v, want the opaque-undo failure naming wal.EncodedUndo", err)
	}
	if string(got) != "prefix" {
		t.Fatalf("dst after failed append = %q", got)
	}
}

// TestAppendRecordAllocFree pins the encoder's cost: into a buffer with
// room, appending a record — an undo-logged update, or a commit record with
// hand-appended deps — allocates nothing.
func TestAppendRecordAllocFree(t *testing.T) {
	recs := []Record{benchRecord(), codecRecords()[5]}
	buf := make([]byte, 0, 4096)
	for _, r := range recs {
		if n := testing.AllocsPerRun(100, func() {
			buf, _ = appendRecord(buf[:0], r)
		}); n != 0 {
			t.Errorf("appendRecord(%s) = %v allocs, want 0", r.Kind, n)
		}
	}
}

// benchRecord is a typical undo-logged bank-account update.
func benchRecord() Record {
	return Record{LSN: 123456, Kind: Update, Txn: "T004217", Obj: "acct-0311", PrevLSN: 123450,
		Op:   spec.Operation{Inv: spec.Invocation{Name: "withdraw", Args: "25"}, Res: "ok"},
		Undo: EncodedUndo("25")}
}

func BenchmarkAppendRecord(b *testing.B) {
	r := benchRecord()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = appendRecord(buf[:0], r)
	}
	b.SetBytes(int64(len(buf)))
}

// FuzzDecodeRecord: decodeRecord either rejects a line or returns a
// record that encodes and decodes back to itself. The seed corpus — every
// codec record's line plus malformed ones — runs as a unit test.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range codecRecords() {
		line, err := appendRecord(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(strings.TrimSuffix(string(line), "\n"))
	}
	for _, s := range []string{
		"",
		"1\t0\tA\tX\t0\t\t\t\t-",                 // nine fields
		"1\t0\tA\tX\t0\t\t\t\tx\t-",              // bad undo field
		"1\t0\tA\tX\t0\t\t\t\t-\td[1]",           // deps not strings
		"1\t0\tA\tX\t0\t\t\t\t-\td[]",            // empty deps
		"1\t0\tA\tX\t0\t\t\t\t-\tdnull",          // null deps
		"1\t9\tA\tX\t0\t\t\t\t-\t-",              // kind out of range
		"1\t0\ta\\\\\\tb\\x\tX\t0\t\t\t\te\\\t-", // odd escapes
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r, err := decodeRecord(line)
		if err != nil {
			return
		}
		enc, err := appendRecord(nil, r)
		if err != nil {
			t.Fatalf("decoded record %+v does not re-encode: %v", r, err)
		}
		again, err := decodeRecord(strings.TrimSuffix(string(enc), "\n"))
		if err != nil {
			t.Fatalf("re-encoded line %q does not decode: %v", enc, err)
		}
		// Empty deps encode as "-" and decode as nil: the same record.
		if len(r.Deps) == 0 {
			r.Deps = nil
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("line %q decoded as %+v, re-encoded %q, decoded again as %+v", line, r, enc, again)
		}
	})
}
