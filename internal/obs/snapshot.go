package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Snapshot is the unified introspection view: everything the engine can
// say about itself — configuration labels, lifecycle counters, WAL
// accounting, checkpoint state, phase histograms, trace statistics, and
// (when a restart ran) the recovery stats — in one JSON-encodable
// struct. txn.Engine.ObsSnapshot assembles it; harnesses and exporters
// read it instead of hand-harvesting individual counters.
type Snapshot struct {
	// Policy and Discipline label the engine configuration the numbers
	// were measured under, so a snapshot is self-describing.
	Policy     string `json:"policy"`
	Discipline string `json:"discipline,omitempty"`
	Shards     int    `json:"shards"`

	Engine     EngineCounters  `json:"engine"`
	WAL        WALStats        `json:"wal"`
	Checkpoint CheckpointStats `json:"checkpoint"`

	// Phases is nil when the engine ran without an Observer.
	Phases *PhaseSnapshot `json:"phases,omitempty"`
	// Trace is nil unless sampled tracing was enabled.
	Trace *TraceStats `json:"trace,omitempty"`

	// Restart carries a recovery.RestartStats when the harness performed
	// a crash restart. The field is typed any because obs is a leaf
	// package (recovery imports wal; wal imports obs) — the JSON
	// encoding is what consumers contract on.
	Restart any `json:"restart,omitempty"`
}

// EngineCounters mirrors txn.Metrics at one read point, plus the
// derived per-commit hold mean.
type EngineCounters struct {
	Begins             int64 `json:"begins"`
	Commits            int64 `json:"commits"`
	Aborts             int64 `json:"aborts"`
	Deadlocks          int64 `json:"deadlocks"`
	Operations         int64 `json:"operations"`
	Blocked            int64 `json:"blocked"`
	BlockEvents        int64 `json:"block_events"`
	NotEnabled         int64 `json:"not_enabled"`
	DurabilityFailures int64 `json:"durability_failures"`
	DependencyStalls   int64 `json:"dependency_stalls"`
	DurabilityAborts   int64 `json:"durability_aborts"`
	CommitHoldNS       int64 `json:"commit_hold_ns"`
	// RegistryLockAcqs is structurally zero: the registry hit path is
	// one atomic load of a copy-on-write map and takes no lock, so
	// nothing increments it. It stays in the document because bench/
	// reports it as stripe.registry_lock_acqs.
	RegistryLockAcqs int64 `json:"registry_lock_acqs"`
	// MeanCommitHoldNS is CommitHoldNS / Commits — the per-policy
	// commit-hold figure, surfaced here so readers need not recompute
	// it.
	MeanCommitHoldNS float64 `json:"mean_commit_hold_ns"`
}

// WALStats mirrors wal.Log.Stats() (obs cannot import wal; the engine
// converts). All fields are read under the log's single sequence point,
// so no cross-field tearing.
type WALStats struct {
	Flushes            int64  `json:"flushes"`
	FlushedRecords     int64  `json:"flushed_records"`
	StripeAcquisitions int64  `json:"stripe_acquisitions"`
	DurableLSN         uint64 `json:"durable_lsn"`
	Records            int    `json:"records"`
	Bytes              int64  `json:"bytes"`
	Base               uint64 `json:"base"`
	Discipline         string `json:"discipline,omitempty"`
	// TruncBytesRewritten is structurally zero: the WAL truncates by
	// unlinking whole segments and never rewrites a byte. It remains only
	// because the benchmark's checkpoint.bytes_rewritten metric reads it.
	TruncBytesRewritten   int64  `json:"trunc_bytes_rewritten"`
	TruncSegmentsUnlinked int    `json:"trunc_segments_unlinked"`
	Err                   string `json:"err,omitempty"`
}

// CheckpointStats is the engine's checkpoint progress.
type CheckpointStats struct {
	Completed        int64 `json:"completed"`
	TruncatedRecords int64 `json:"truncated_records"`
}

// TraceStats summarizes the tracer without embedding the events.
type TraceStats struct {
	Sampled int64 `json:"sampled_txns"`
	Events  int   `json:"events"`
	Dropped int64 `json:"dropped"`
	Kinds   int   `json:"kinds"`
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot in an expvar-style flat text form: one
// "dotted.path value" line per scalar, histograms as
// "count mean p50<= p99<=" summaries. The line set is fixed and
// explicitly ordered — no map iteration feeds output.
func (s Snapshot) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("engine.policy %s\n", s.Policy)
	if s.Discipline != "" {
		p("engine.discipline %s\n", s.Discipline)
	}
	p("engine.shards %d\n", s.Shards)
	p("engine.begins %d\n", s.Engine.Begins)
	p("engine.commits %d\n", s.Engine.Commits)
	p("engine.aborts %d\n", s.Engine.Aborts)
	p("engine.deadlocks %d\n", s.Engine.Deadlocks)
	p("engine.operations %d\n", s.Engine.Operations)
	p("engine.blocked %d\n", s.Engine.Blocked)
	p("engine.block_events %d\n", s.Engine.BlockEvents)
	p("engine.not_enabled %d\n", s.Engine.NotEnabled)
	p("engine.durability_failures %d\n", s.Engine.DurabilityFailures)
	p("engine.dependency_stalls %d\n", s.Engine.DependencyStalls)
	p("engine.durability_aborts %d\n", s.Engine.DurabilityAborts)
	p("engine.commit_hold_ns %d\n", s.Engine.CommitHoldNS)
	p("engine.mean_commit_hold_ns %.0f\n", s.Engine.MeanCommitHoldNS)
	p("engine.registry_lock_acqs %d\n", s.Engine.RegistryLockAcqs)
	p("wal.flushes %d\n", s.WAL.Flushes)
	p("wal.flushed_records %d\n", s.WAL.FlushedRecords)
	p("wal.stripe_acquisitions %d\n", s.WAL.StripeAcquisitions)
	p("wal.durable_lsn %d\n", s.WAL.DurableLSN)
	p("wal.records %d\n", s.WAL.Records)
	p("wal.bytes %d\n", s.WAL.Bytes)
	p("wal.base %d\n", s.WAL.Base)
	if s.WAL.Discipline != "" {
		p("wal.discipline %s\n", s.WAL.Discipline)
	}
	p("wal.trunc_bytes_rewritten %d\n", s.WAL.TruncBytesRewritten)
	p("wal.trunc_segments_unlinked %d\n", s.WAL.TruncSegmentsUnlinked)
	if s.WAL.Err != "" {
		p("wal.err %s\n", s.WAL.Err)
	}
	p("checkpoint.completed %d\n", s.Checkpoint.Completed)
	p("checkpoint.truncated_records %d\n", s.Checkpoint.TruncatedRecords)
	if ph := s.Phases; ph != nil {
		hist := func(name string, h HistogramSnapshot) {
			p("phase.%s count=%d mean=%.0f p50<=%d p99<=%d\n",
				name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
		}
		hist("lock_wait_ns", ph.LockWait)
		hist("wal_stage_ns", ph.WALStage)
		hist("barrier_wait_ns", ph.BarrierWait)
		hist("stall_wait_ns", ph.StallWait)
		hist("commit_hold_ns", ph.CommitHold)
		hist("txn_e2e_ns", ph.TxnE2E)
		hist("flush_batch_records", ph.FlushBatch)
		hist("flush_dwell_ns", ph.FlushDwell)
		hist("flush_sync_ns", ph.FlushSync)
		hist("ckpt_capture_ns", ph.CkptCapture)
		hist("ckpt_save_ns", ph.CkptSave)
	}
	if t := s.Trace; t != nil {
		p("trace.sampled_txns %d\n", t.Sampled)
		p("trace.events %d\n", t.Events)
		p("trace.dropped %d\n", t.Dropped)
		p("trace.kinds %d\n", t.Kinds)
	}
	return err
}
