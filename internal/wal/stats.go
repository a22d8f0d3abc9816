package wal

// Discipline returns the logging discipline the log carries: DisciplineRedo
// when a DisciplineRec marker has been sequenced or replayed, "" when the
// log has no marker (implicitly undo logging — every pre-discipline log).
// Staged records are sequenced first so a just-staged marker is visible.
func (l *Log) Discipline() string {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.discipline
}

// FlushedRecords returns the total records sequenced by flush batches
// (over Stats().Flushes, the mean group-commit batch size) — on a sink,
// which sequences nothing, the total records appended.
func (l *Log) FlushedRecords() int64 { return l.flushed.Load() }

// Stats is a coherent snapshot of every accounting figure the log
// exposes. The individual accessors (Records, Base, DurableLSN, ...) each
// take their own lock, so a caller reading several of them can observe
// torn cross-field states — Records from before a truncation and Base
// from after it. Stats reads everything under one sequence point.
//
// Flushes counts the non-empty flush rounds sequenced, and
// StripeAcquisitions the staging-queue lock acquisitions by appenders (a
// round's drain excluded; AppendBatchAsync stages N records under one).
// Records counts the log's records from Base+1 through the newest LSN
// sequenced; the log keeps none of them in memory. Bytes is what the
// backend holds: the bytes its replay scanned at Open, plus each encoded
// frame its Write accepted, minus the bytes its truncations unlinked
// (TruncateStats.BytesUnlinked) — for the segmented backend, the segments'
// size on disk. A batch that failed to encode, or that a simulated crash
// or a dead backend kept from the backend, adds nothing; and a truncation
// the backend does not realize (no Truncator, a dead backend, a simulated
// crash) advances Base and lowers Records but leaves Bytes where it was.
// Truncate accumulates the backend's truncation cost since Open. A sink
// sequences and encodes nothing, so only its FlushedRecords (every
// appended record) and Discipline move; the rest stay 0, the watermark
// included — IsDurable holds for every ticket of a sink anyway.
type Stats struct {
	Flushes            int64         `json:"flushes"`
	FlushedRecords     int64         `json:"flushed_records"`
	StripeAcquisitions int64         `json:"stripe_acquisitions"`
	DurableTicket      Ticket        `json:"durable_ticket"`
	DurableLSN         LSN           `json:"durable_lsn"`
	Records            int           `json:"records"`
	Bytes              int64         `json:"bytes"`
	Base               LSN           `json:"base"`
	Discipline         string        `json:"discipline,omitempty"`
	Truncate           TruncateStats `json:"truncate"`
	Err                error         `json:"-"`
}

// Stats returns the log's accounting under a single sequence point:
// staged records are sequenced first, then every field is read while
// holding flushMu and mu (the flushOnce / TruncateBefore lock order) with
// no round in flight, so no flush, completion or truncation can
// interleave between fields. On a quiesced log each field equals its
// individual accessor.
func (l *Log) Stats() Stats {
	l.sequenceStaged()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitIdle()
	s := Stats{
		Flushes:            l.flushes.Load(),
		FlushedRecords:     l.flushed.Load(),
		StripeAcquisitions: l.stageAcqs.Load(),
		Truncate:           l.truncStats,
	}
	s.DurableTicket = Ticket(l.durableTicket)
	s.DurableLSN = l.durableLSN
	s.Records = int(l.lastLSN - l.base)
	s.Bytes = l.bytes
	s.Base = l.base
	s.Discipline = l.discipline
	s.Err = l.syncErr
	return s
}

// Records is the log-size accounting the checkpoint experiments report:
// the number of records from Base+1 through the newest LSN sequenced
// (truncated records excluded), sequencing staged records first.
func (l *Log) Records() int {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.lastLSN - l.base)
}

// Base returns the truncation base: every record with LSN at or below it
// has been discarded by TruncateBefore (0 for an untruncated log). LSNs
// are never renumbered, so Base+1 is the first replayable LSN.
func (l *Log) Base() LSN {
	l.sequenceStaged()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}
