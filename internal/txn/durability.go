package txn

// Durable-engine construction: the boilerplate every durable deployment of
// the engine repeats — create a segmented WAL backend, wrap it in a
// group-committing log, open a file checkpoint store, and
// hand both to NewEngine — gathered behind one options struct.
// The benchmark builds its durable engines through this; the tests that
// need to reach inside (crash hooks, custom crash points) keep assembling
// the pieces by hand.

import (
	"fmt"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/wal"
)

// DurabilityOptions configures NewDurableEngine's storage layout.
type DurabilityOptions struct {
	// Dir is the root directory (created if absent): segment files live
	// in Dir/wal, checkpoint snapshots in Dir/ckpt.
	Dir string
	// SegmentBytes is the segmented backend's rotation threshold (0 =
	// wal.DefaultSegmentBytes).
	SegmentBytes int64
}

// WALDir returns the write-ahead-log directory under d.Dir.
func (d DurabilityOptions) WALDir() string { return filepath.Join(d.Dir, "wal") }

// CheckpointDir returns the checkpoint-store directory under d.Dir.
func (d DurabilityOptions) CheckpointDir() string { return filepath.Join(d.Dir, "ckpt") }

// SegmentConfig returns the wal.SegmentConfig d describes.
func (d DurabilityOptions) SegmentConfig() wal.SegmentConfig {
	return wal.SegmentConfig{MaxSegmentBytes: d.SegmentBytes}
}

// NewDurableEngine builds a fully durable engine: a fresh segmented WAL
// backend in d.Dir, a group-committed log over it, and a file checkpoint
// store. Any WAL or Checkpoint already present in opts is overridden; the
// engine owns the log (Engine.Close closes it, sealing the backend). The
// engine starts no goroutine: commit barriers run the flush rounds.
func NewDurableEngine(opts Options, d DurabilityOptions) (*Engine, error) {
	backend, err := wal.CreateSegmentedBackend(d.WALDir(), d.SegmentConfig())
	if err != nil {
		return nil, fmt.Errorf("txn: durable engine: %w", err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		backend.Close()
		return nil, fmt.Errorf("txn: durable engine: %w", err)
	}
	store, err := checkpoint.OpenFileStore(d.CheckpointDir())
	if err != nil {
		if cerr := log.Close(); cerr != nil {
			err = fmt.Errorf("%w (and closing the WAL: %w)", err, cerr)
		}
		return nil, fmt.Errorf("txn: durable engine: %w", err)
	}
	opts.WAL = log
	opts.Checkpoint = &CheckpointOptions{Store: store}
	return NewEngine(opts), nil
}
