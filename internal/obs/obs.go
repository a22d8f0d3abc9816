// Package obs is the engine's observability layer: phase-latency
// histograms, sampled transaction-lifecycle tracing, and the unified
// introspection snapshot every harness and exporter reads.
//
// The package is a leaf — it imports only the standard library, and the
// engine packages (internal/txn, internal/wal, internal/checkpoint)
// import it, never the reverse. Two disciplines follow from where it
// sits:
//
//   - obs never reads a clock and never draws randomness. Every duration
//     and timestamp arrives as int64 nanoseconds computed by the caller
//     (the engine packages are outside detreplay's scope; obs is inside
//     it), and trace sampling is a deterministic splitmix64 hash of the
//     transaction sequence number against a threshold — so enabling
//     tracing perturbs no workload RNG stream and replays stay
//     bit-identical.
//
//   - every hook is safe on a nil *Observer and costs one predicted
//     branch there. The engine holds a possibly-nil observer and calls
//     hooks unconditionally on cold paths, or nil-gates first on hot
//     paths to also skip the clock read. TestNilObserverHooksAllocFree
//     proves the disabled path allocates nothing with
//     testing.AllocsPerRun — a counter proof, not a timing claim.
package obs

import "time"

// Options configures an Observer.
type Options struct {
	// Epoch anchors trace timestamps: callers report event times as
	// nanoseconds since Epoch (time.Since(Epoch) at the call site). The
	// zero value still yields a valid trace — timestamps are then huge
	// but internally consistent. obs itself never reads the clock; the
	// constructor's caller supplies the anchor.
	Epoch time.Time
	// SampleRate is the fraction of transactions traced, in [0, 1].
	// Zero disables tracing entirely (histograms stay on); 1 traces
	// every transaction. Sampling is a deterministic hash of the
	// transaction sequence number, not a draw from any RNG.
	SampleRate float64
	// TraceSeed perturbs the sampling hash so distinct runs can sample
	// distinct transaction subsets while each run stays deterministic.
	TraceSeed uint64
	// TraceMaxEvents caps the tracer's retained event count (0 =
	// DefaultTraceMaxEvents). Events past the cap are counted as
	// dropped, never silently lost.
	TraceMaxEvents int
}

// Observer is the hub the engine reports into: one histogram per engine
// phase plus an optional sampled tracer. All hook methods are nil-safe
// — a nil *Observer is the disabled observability layer, and every hook
// returns immediately without touching memory.
type Observer struct {
	// Epoch is Options.Epoch; engine packages read it to convert wall
	// times into trace-relative nanoseconds.
	Epoch time.Time

	// Per-transaction phase histograms (nanoseconds).
	LockWait    Histogram // time blocked waiting for a conflicting lock
	WALStage    Histogram // staging commit records into the WAL's staging queue
	BarrierWait Histogram // the commit flush barrier (wait for or lead a round, through its sync)
	StallWait   Histogram // barrier waits of dependency-stalled commits
	CommitHold  Histogram // lock hold inside Commit (mirrors CommitHoldNS)
	TxnE2E      Histogram // begin-to-terminal end-to-end latency

	// Flush-round histograms (batch size is a count, not nanoseconds).
	FlushBatch Histogram // records per durable flush batch
	FlushSync  Histogram // backend sync duration per flush

	// Checkpoint histograms.
	CkptCapture Histogram // registry capture walk duration
	CkptSave    Histogram // durable-wait + snapshot-save duration

	tracer *Tracer
}

// New builds an Observer from opts; tracing is created only when
// opts.SampleRate > 0.
func New(opts Options) *Observer {
	o := &Observer{Epoch: opts.Epoch}
	if opts.SampleRate > 0 {
		o.tracer = newTracer(opts.SampleRate, opts.TraceSeed, opts.TraceMaxEvents)
	}
	return o
}

// RecordLockWait records one blocked-lock wait of ns nanoseconds.
func (o *Observer) RecordLockWait(ns int64) {
	if o == nil {
		return
	}
	o.LockWait.Record(ns)
}

// RecordWALStage records one commit's WAL staging time.
func (o *Observer) RecordWALStage(ns int64) {
	if o == nil {
		return
	}
	o.WALStage.Record(ns)
}

// RecordBarrierWait records one commit's flush-barrier wait; stalled
// commits (those that waited on a dependency's durability, the
// DependencyStalls population) are additionally recorded in StallWait,
// so the stall count gained a duration distribution.
func (o *Observer) RecordBarrierWait(ns int64, stalled bool) {
	if o == nil {
		return
	}
	o.BarrierWait.Record(ns)
	if stalled {
		o.StallWait.Record(ns)
	}
}

// RecordCommitHold records one commit's lock-hold duration.
func (o *Observer) RecordCommitHold(ns int64) {
	if o == nil {
		return
	}
	o.CommitHold.Record(ns)
}

// RecordTxnEnd records one transaction's end-to-end latency.
func (o *Observer) RecordTxnEnd(ns int64) {
	if o == nil {
		return
	}
	o.TxnE2E.Record(ns)
}

// RecordFlushBatch records one durable flush's batch size (records).
func (o *Observer) RecordFlushBatch(n int64) {
	if o == nil {
		return
	}
	o.FlushBatch.Record(n)
}

// RecordFlushSync records one backend sync duration.
func (o *Observer) RecordFlushSync(ns int64) {
	if o == nil {
		return
	}
	o.FlushSync.Record(ns)
}

// RecordCheckpoint records one checkpoint's capture-walk and save
// durations.
func (o *Observer) RecordCheckpoint(captureNS, saveNS int64) {
	if o == nil {
		return
	}
	o.CkptCapture.Record(captureNS)
	o.CkptSave.Record(saveNS)
}

// Tracing reports whether lifecycle tracing is enabled. Callers use it
// to skip building event argument maps when no tracer will consume
// them.
func (o *Observer) Tracing() bool {
	return o != nil && o.tracer != nil
}

// SampleTxn decides whether the transaction with the given sequence
// number is traced, returning its event accumulator or nil. The
// decision is splitmix64(seed ^ seq) against the sample-rate threshold
// — deterministic per (seed, seq), independent of every workload RNG.
func (o *Observer) SampleTxn(seq int64) *TxnTrace {
	if o == nil || o.tracer == nil {
		return nil
	}
	return o.tracer.sample(seq)
}

// TraceGlobal emits a process-scoped span (tid 0) — checkpoints and
// other non-transaction activity. No-op unless tracing is enabled.
func (o *Observer) TraceGlobal(name string, startNS, endNS int64, args map[string]string) {
	if o == nil || o.tracer == nil {
		return
	}
	o.tracer.global(name, startNS, endNS, args)
}

// Trace returns the tracer for export, or nil when tracing is off.
func (o *Observer) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Phases returns a merged snapshot of every phase histogram.
func (o *Observer) Phases() *PhaseSnapshot {
	if o == nil {
		return nil
	}
	return &PhaseSnapshot{
		LockWait:    o.LockWait.Snapshot(),
		WALStage:    o.WALStage.Snapshot(),
		BarrierWait: o.BarrierWait.Snapshot(),
		StallWait:   o.StallWait.Snapshot(),
		CommitHold:  o.CommitHold.Snapshot(),
		TxnE2E:      o.TxnE2E.Snapshot(),
		FlushBatch:  o.FlushBatch.Snapshot(),
		FlushSync:   o.FlushSync.Snapshot(),
		CkptCapture: o.CkptCapture.Snapshot(),
		CkptSave:    o.CkptSave.Snapshot(),
	}
}
