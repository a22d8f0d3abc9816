package obs

// Snapshot is the unified introspection view: everything the engine can
// say about itself — configuration labels, lifecycle counters, WAL
// accounting, checkpoint state, phase histograms, trace statistics, and
// (when a restart ran) the recovery stats — in one JSON-encodable
// struct. txn.Engine.ObsSnapshot assembles it; harnesses and exporters
// read it instead of hand-harvesting individual counters.
type Snapshot struct {
	// Discipline labels the logging discipline the numbers were
	// measured under, so a snapshot is self-describing.
	Discipline string `json:"discipline,omitempty"`

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
	// RegistryLockAcqs is structurally zero: the registry lookup is the
	// sync.Map hit path, no lock, so nothing increments it. It stays in
	// the document because bench/ reports it as
	// stripe.registry_lock_acqs.
	RegistryLockAcqs int64 `json:"registry_lock_acqs"`
	// MeanCommitHoldNS is CommitHoldNS / Commits — the mean lock hold
	// of the commit protocol, surfaced here so readers need not
	// recompute it.
	MeanCommitHoldNS float64 `json:"mean_commit_hold_ns"`
}

// WALStats mirrors wal.Log.Stats() (obs cannot import wal; the engine
// converts). All fields are read under the log's single sequence point,
// so no cross-field tearing.
type WALStats struct {
	Flushes        int64 `json:"flushes"`
	FlushedRecords int64 `json:"flushed_records"`
	// StripeAcquisitions counts staging-queue lock acquisitions by
	// appenders (the name predates the single queue).
	StripeAcquisitions int64  `json:"stripe_acquisitions"`
	DurableLSN         uint64 `json:"durable_lsn"`
	Records            int    `json:"records"`
	// Bytes is the retained records' encoded size, as handed to the
	// backend; 0 for a log with no backend, which retains nothing (see
	// wal.Stats).
	Bytes      int64  `json:"bytes"`
	Base       uint64 `json:"base"`
	Discipline string `json:"discipline,omitempty"`
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
