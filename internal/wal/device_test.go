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

// lastLSN returns the LSN of txn's newest retained record, 0 if none.
func lastLSN(l *Log, txn history.TxnID) LSN {
	if chain := l.TxnChain(txn); len(chain) > 0 {
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
