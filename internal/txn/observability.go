package txn

import (
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// obsEnd closes out a transaction's observability: it records the
// end-to-end latency and, for sampled transactions, emits the enclosing
// "txn" span and the terminal instant and publishes the trace batch.
// Idempotent — the first terminal path (commit, abort, terminate,
// durability failure) wins and clears t.obs, so a transaction records
// exactly one end however many error paths it crosses. Nil-safe: a
// transaction begun on an engine without an observer does nothing here.
func (t *Txn) obsEnd(outcome string) {
	o := t.obs
	if o == nil {
		return
	}
	t.obs = nil
	d := time.Since(t.begin).Nanoseconds()
	o.RecordTxnEnd(d)
	if tt := t.trace; tt != nil {
		end := time.Since(o.Epoch).Nanoseconds()
		tt.Span("txn", end-d, end, map[string]string{"outcome": outcome})
		tt.Instant(outcome, end, nil)
		tt.Finish()
		t.trace = nil
	}
}

// ObsSnapshot assembles the unified introspection snapshot: engine
// configuration labels, every lifecycle counter, the WAL's coherent
// accounting (one wal.Log.Stats sequence point — no torn cross-field
// reads), checkpoint progress, and — when an observer is attached — the
// phase histograms and trace statistics. This is the one read point
// harnesses and exporters use instead of harvesting counters piecemeal;
// in particular it surfaces the mean commit hold.
func (e *Engine) ObsSnapshot() obs.Snapshot {
	m := &e.Metrics
	disc := e.opts.LogDiscipline
	if disc == "" {
		disc = wal.DisciplineUndo
	}
	s := obs.Snapshot{
		Discipline: disc,
		Shards:     len(e.shards),
		Engine: obs.EngineCounters{
			Begins:             m.Begins.Load(),
			Commits:            m.Commits.Load(),
			Aborts:             m.Aborts.Load(),
			Deadlocks:          m.Deadlocks.Load(),
			Operations:         m.Operations.Load(),
			Blocked:            m.Blocked.Load(),
			BlockEvents:        m.BlockEvents.Load(),
			NotEnabled:         m.NotEnabled.Load(),
			DurabilityFailures: m.DurabilityFailures.Load(),
			DependencyStalls:   m.DependencyStalls.Load(),
			DurabilityAborts:   m.DurabilityAborts.Load(),
			CommitHoldNS:       m.CommitHoldNS.Load(),
		},
		Checkpoint: obs.CheckpointStats{
			Completed:        m.Checkpoints.Load(),
			TruncatedRecords: m.TruncatedRecords.Load(),
		},
	}
	if commits := s.Engine.Commits; commits > 0 {
		s.Engine.MeanCommitHoldNS = float64(s.Engine.CommitHoldNS) / float64(commits)
	}
	ws := e.log.Stats()
	s.WAL = obs.WALStats{
		Flushes:               ws.Flushes,
		FlushedRecords:        ws.FlushedRecords,
		StripeAcquisitions:    ws.StripeAcquisitions,
		DurableLSN:            uint64(ws.DurableLSN),
		Records:               ws.Records,
		Bytes:                 ws.Bytes,
		Base:                  uint64(ws.Base),
		Discipline:            ws.Discipline,
		TruncSegmentsUnlinked: ws.Truncate.SegmentsUnlinked,
	}
	if ws.Err != nil {
		s.WAL.Err = ws.Err.Error()
	}
	if o := e.obsv; o != nil {
		s.Phases = o.Phases()
		if tr := o.Trace(); tr != nil {
			sampled, events, dropped := tr.Stats()
			s.Trace = &obs.TraceStats{
				Sampled: sampled,
				Events:  events,
				Dropped: dropped,
				Kinds:   len(tr.KindCounts()),
			}
		}
	}
	return s
}
