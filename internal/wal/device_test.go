package wal

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/history"
)

// countingBackend is package wal's in-memory test device: it stores
// nothing and syncs at once, counting the Syncs it served and the records
// they covered. (The engine's tests use waltest.LatencyBackend, which
// package wal's own tests cannot import.)
type countingBackend struct {
	syncs   atomic.Int64
	recs    atomic.Int64
	pending atomic.Int64 // records written and not yet covered by a Sync
}

func (b *countingBackend) Write(records []Record, _ []byte) error {
	b.pending.Add(int64(len(records)))
	return nil
}

func (b *countingBackend) Sync() error {
	b.syncs.Add(1)
	b.recs.Add(b.pending.Swap(0))
	return nil
}

func (b *countingBackend) Close() error { return nil }

// appendDurable stages r, waits until it is durable and returns its LSN,
// named by its ticket: the synchronous append the tests build logs with. A
// refused record or a failed round is reported through t.Errorf (safe from
// any goroutine) and yields the nil LSN.
func appendDurable(t testing.TB, l *Log, r Record) LSN {
	t.Helper()
	tk, err := l.AppendAsync(r)
	if err == nil {
		err = l.WaitDurable(tk)
	}
	if err != nil {
		t.Errorf("append %s for %s: %v", r.Kind, r.Txn, err)
		return 0
	}
	return l.TicketLSN(tk)
}

// memBackend is package wal's recording test device: a countingBackend
// that also keeps a copy of every record written to it, in LSN order — the
// durable image a test reads back through logged.
type memBackend struct {
	countingBackend
	mu      sync.Mutex
	written []Record
}

func (b *memBackend) Write(records []Record, frame []byte) error {
	b.mu.Lock()
	b.written = append(b.written, records...)
	b.mu.Unlock()
	return b.countingBackend.Write(records, frame)
}

// logged returns the records log l spans — Base+1 through the newest LSN
// sequenced — as its memBackend received them, sequencing staged records
// first: what a reader of the durable log finds.
func logged(t testing.TB, l *Log) []Record {
	t.Helper()
	b, ok := l.backend.(*memBackend)
	if !ok {
		t.Fatalf("backend %T keeps no records", l.backend)
	}
	base := l.Base() // sequences staged records
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Record
	for _, r := range b.written {
		if r.LSN > base {
			out = append(out, r)
		}
	}
	return out
}

// replayed takes the records a reopened log replayed from its backend.
func replayed(t testing.TB, l *Log) []Record {
	t.Helper()
	recs, err := l.TakeReplay()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// recordAt returns the record at lsn among recs.
func recordAt(recs []Record, lsn LSN) (Record, bool) {
	for _, r := range recs {
		if r.LSN == lsn {
			return r, true
		}
	}
	return Record{}, false
}

// chainOf returns txn's records among recs (contiguous in LSN order)
// newest-first, as a reader finds them by following PrevLSN back from the
// transaction's newest record; the walk stops at the first LSN of recs.
func chainOf(recs []Record, txn history.TxnID) []Record {
	var out []Record
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Txn != txn {
			continue
		}
		base := recs[0].LSN - 1
		for lsn := recs[i].LSN; lsn > base; lsn = out[len(out)-1].PrevLSN {
			out = append(out, recs[lsn-base-1])
		}
		break
	}
	return out
}

// lastLSN returns the LSN of txn's newest record among recs, 0 if none.
func lastLSN(recs []Record, txn history.TxnID) LSN {
	if chain := chainOf(recs, txn); len(chain) > 0 {
		return chain[0].LSN
	}
	return 0
}

// segmentsOf returns the backend's segment layout, oldest first (the
// active segment last).
func segmentsOf(b *SegmentedBackend) []segmentInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]segmentInfo(nil), b.sealed...)
	if b.active != nil {
		out = append(out, b.actInf)
	}
	return out
}

// segmentFileBytes sums the on-disk sizes of the segment files in dir.
func segmentFileBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		if _, ok := parseSegName(e.Name()); !ok {
			continue
		}
		st, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}
