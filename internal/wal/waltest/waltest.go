// Package waltest holds the test devices of package wal's Backend seam:
// backends that tests of the engine, recovery and checkpoint packages open
// a log over when they need a log that retains its records but not the
// segmented backend's files. No production code imports it.
package waltest

import (
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// LatencyBackend simulates a storage device with a fixed per-sync latency
// (an fsync cost model). Overlapping Syncs each take the full delay at the
// same time, like fsyncs queued on a device that serves them in parallel,
// so the cost of a commit is its round's sync and not its predecessors'.
type LatencyBackend struct {
	delay   time.Duration
	syncs   atomic.Int64
	recs    atomic.Int64
	pending atomic.Int64 // records written and not yet covered by a Sync
}

var _ wal.Backend = (*LatencyBackend)(nil)

// NewLatencyBackend builds a latency-simulating backend.
func NewLatencyBackend(delay time.Duration) *LatencyBackend {
	return &LatencyBackend{delay: delay}
}

// Write implements wal.Backend; the frame is not stored.
func (b *LatencyBackend) Write(records []wal.Record, _ []byte) error {
	b.pending.Add(int64(len(records)))
	return nil
}

// Sync implements wal.Backend: it covers every record written before the
// call and takes the configured delay.
func (b *LatencyBackend) Sync() error {
	n := b.pending.Swap(0)
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.syncs.Add(1)
	b.recs.Add(n)
	return nil
}

// Close implements wal.Backend.
func (b *LatencyBackend) Close() error { return nil }

// Syncs returns the number of Sync calls served.
func (b *LatencyBackend) Syncs() int64 { return b.syncs.Load() }

// SyncedRecords returns the total records synced (SyncedRecords/Syncs is
// the mean durable batch size).
func (b *LatencyBackend) SyncedRecords() int64 { return b.recs.Load() }
