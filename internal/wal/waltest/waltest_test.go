package waltest

import (
	"testing"
	"time"

	"repro/internal/wal"
)

// TestLatencyBackendDelays: syncs take at least the configured latency.
func TestLatencyBackendDelays(t *testing.T) {
	b := NewLatencyBackend(5 * time.Millisecond)
	start := time.Now()
	if err := b.Write([]wal.Record{{LSN: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("sync returned after %v, want >= 5ms", d)
	}
	if b.Syncs() != 1 || b.SyncedRecords() != 1 {
		t.Fatalf("counters = %d syncs / %d records", b.Syncs(), b.SyncedRecords())
	}
}
