package wal

import (
	"os"
	"path/filepath"
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

// recordAt returns the retained record at lsn, as a reader sees the log.
func recordAt(l *Log, lsn LSN) (Record, bool) {
	for _, r := range l.Snapshot() {
		if r.LSN == lsn {
			return r, true
		}
	}
	return Record{}, false
}

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

// chainOf returns txn's retained records newest-first, as a reader of
// Snapshot finds them by following PrevLSN back from the transaction's
// newest record; the walk stops at the truncation base.
func chainOf(l *Log, txn history.TxnID) []Record {
	snap := l.Snapshot()
	var out []Record
	for i := len(snap) - 1; i >= 0; i-- {
		if snap[i].Txn != txn {
			continue
		}
		base := snap[0].LSN - 1
		for lsn := snap[i].LSN; lsn > base; lsn = out[len(out)-1].PrevLSN {
			out = append(out, snap[lsn-base-1])
		}
		break
	}
	return out
}

// lastLSN returns the LSN of txn's newest retained record, 0 if none.
func lastLSN(l *Log, txn history.TxnID) LSN {
	if chain := chainOf(l, txn); len(chain) > 0 {
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
