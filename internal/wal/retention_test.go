package wal

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
)

// TestRetentionBounded: a durable log with no checkpoint keeps neither its
// records nor a chain head per committed transaction. n commits through a
// segmented backend, with four transactions open at every instant, leave
// the chain-head map holding at most the open ones, and the live heap after
// 20,000 commits is no larger than after 2,000, give or take a mebibyte
// (the records of 18,000 more commits would take several).
func TestRetentionBounded(t *testing.T) {
	const open, every = 4, 64
	heads := func(l *Log) int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.lastOf)
	}
	heap := func(n int) uint64 {
		b, err := CreateSegmentedBackend(t.TempDir(), SegmentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := Open(Config{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		txn := func(i int) history.TxnID { return history.TxnID(fmt.Sprintf("T%06d", i)) }
		for i := 0; i < n+open; i++ {
			if _, err := l.AppendAsync(Record{Kind: Update, Txn: txn(i), Obj: "acct", Op: adt.DepositOk(1),
				Undo: EncodedUndo("1")}); err != nil {
				t.Fatal(err)
			}
			if i >= open {
				if _, err := l.AppendAsync(Record{Kind: TxnCommitRec, Txn: txn(i - open)}); err != nil {
					t.Fatal(err)
				}
			}
			if i%every == every-1 {
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
				if got := heads(l); got > open {
					t.Fatalf("after %d transactions: %d chain heads, want at most the %d open", i+1, got, open)
				}
			}
		}
		if err := l.Flush(); err != nil || l.Err() != nil {
			t.Fatalf("flush: %v, %v", err, l.Err())
		}
		if got := heads(l); got > open {
			t.Fatalf("after %d commits: %d chain heads, want at most the %d open transactions", n, got, open)
		}
		if got := l.Records(); got != 2*n+open {
			t.Fatalf("Records = %d, want %d", got, 2*n+open)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(l)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return ms.HeapAlloc
	}
	small, large := heap(2000), heap(20000)
	t.Logf("live heap: %d bytes after 2,000 commits, %d after 20,000", small, large)
	if large > small+1<<20 {
		t.Fatalf("live heap %d bytes after 20,000 commits, %d after 2,000: the log retains per-commit state",
			large, small)
	}
}
