package wal

import (
	"fmt"
)

// stage appends r to the staging queue and returns its ticket. The ticket
// is taken under stageMu with the append, so queue order is ticket order,
// and callers staging under an object latch get tickets in the object's
// execution order. The closing check happens under stageMu too: Close
// publishes the flag before its final drain takes the queue, so a record
// either joins the final batch or is rejected with ErrClosed — never
// staged and silently lost.
func (l *Log) stage(r Record) (Ticket, error) {
	l.stageMu.Lock()
	l.stageAcqs.Add(1)
	if l.closing.Load() {
		l.stageMu.Unlock()
		return 0, fmt.Errorf("wal: append %s for %s: %w", r.Kind, r.Txn, ErrClosed)
	}
	l.staged = append(l.staged, r)
	t := l.stampSeq.Add(1)
	l.stageMu.Unlock()
	return Ticket(t), nil
}

// AppendAsync stages a record without waiting for its LSN and returns the
// record's stage ticket. The record is sequenced by the next flush round
// (led by a committing transaction's group-commit barrier, any reader, or
// Close). This is the engine's hot path: no log-wide lock. On a closed log
// nothing is staged and the error wraps ErrClosed. A sink only stamps and
// counts the record.
func (l *Log) AppendAsync(r Record) (Ticket, error) {
	if l.backend == nil {
		if l.closing.Load() {
			return 0, fmt.Errorf("wal: append %s for %s: %w", r.Kind, r.Txn, ErrClosed)
		}
		l.sinkDiscipline(r)
		l.flushed.Add(1)
		return Ticket(l.stampSeq.Add(1)), nil
	}
	return l.stage(r)
}

// AppendBatchAsync stages a batch of records under a single staging-queue
// lock acquisition and returns the stage ticket of the LAST record staged.
// The records receive consecutive tickets, so the batch is contiguous in
// stage order and the returned ticket covers every record in it — a
// durability wait on the ticket waits for the whole batch — and a flush
// round, which drains the queue whole, sees all of it or none of it. The
// records may belong to different transactions; each is chained to its own
// transaction's previous record. An empty batch returns the zero ticket.
// On a closed log nothing is staged and the error wraps ErrClosed. A sink
// takes the batch's tickets and counts its records; the caller may reuse
// recs once the call returns, on any log.
func (l *Log) AppendBatchAsync(recs []Record) (Ticket, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	if l.backend == nil {
		if l.closing.Load() {
			return 0, fmt.Errorf("wal: append batch of %d for %s: %w", len(recs), recs[0].Txn, ErrClosed)
		}
		for _, r := range recs {
			l.sinkDiscipline(r)
		}
		l.flushed.Add(int64(len(recs)))
		return Ticket(l.stampSeq.Add(int64(len(recs)))), nil
	}
	l.stageMu.Lock()
	l.stageAcqs.Add(1)
	if l.closing.Load() {
		l.stageMu.Unlock()
		return 0, fmt.Errorf("wal: append batch of %d for %s: %w", len(recs), recs[0].Txn, ErrClosed)
	}
	l.staged = append(l.staged, recs...)
	t := l.stampSeq.Add(int64(len(recs)))
	l.stageMu.Unlock()
	return Ticket(t), nil
}

// sinkDiscipline records the discipline a marker appended to a sink
// declares — the one thing a sink remembers of its records.
func (l *Log) sinkDiscipline(r Record) {
	if r.Kind != DisciplineRec {
		return
	}
	l.mu.Lock()
	if l.discipline == "" {
		l.discipline = r.Op.Inv.Args
	}
	l.mu.Unlock()
}

// TicketLSN returns the LSN of the record staged under ticket t: the log's
// LSN at Open plus t, whichever goroutine's round sequences it. A caller
// can thus name a record's LSN as soon as it is staged, and read the
// record back at that LSN once a barrier has sequenced it. A sink assigns
// no LSNs and returns the nil LSN, as it does for the zero ticket.
func (l *Log) TicketLSN(t Ticket) LSN {
	if t <= 0 || l.backend == nil {
		return 0
	}
	return l.lsn0 + LSN(t)
}
