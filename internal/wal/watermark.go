package wal

import (
	"fmt"
)

// DurableLSN returns the durable watermark: every record at or below this
// LSN has been acknowledged by the backend (0 on a sink, which assigns no
// LSNs). The in-memory log may be ahead of it after a sync failure — see
// Err.
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

// IsDurable reports whether the record behind ticket t has reached the
// durability backend. The zero ticket is always durable, and so is every
// ticket of a sink: its records are as durable as they will ever be.
func (l *Log) IsDurable(t Ticket) bool {
	if t <= 0 || l.backend == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return Ticket(l.durableTicket) >= t
}

// WaitDurable blocks until the record behind ticket t is durable, a round
// up to and including t's has failed (returning the sticky error — the
// watermark will never cover t), or the log is closed without t durable
// (returning an ErrClosed-wrapped error). It is the commit barrier, and the
// dependency barrier of early lock release: a transaction
// that read from an early-released commit passes max(its own ticket, that
// commit's) here and is acknowledged only once its read-from set is
// durable. A durable ticket returns at once; otherwise the call follows
// the barrier rule of Flush — it waits for the round in flight that holds
// t, or leads a round that will. On a sink it returns at
// once: every ticket is durable there.
func (l *Log) WaitDurable(t Ticket) error {
	if t <= 0 || l.backend == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for Ticket(l.durableTicket) < t {
		switch {
		case l.syncErr != nil:
			return l.syncErr
		case Ticket(l.doneTicket) >= t, l.closing.Load() && int64(t) > l.stampSeq.Load():
			// t's round completed without the watermark covering it (it
			// was sequenced after Close released the backend), or t was
			// never issued and never will be.
			return fmt.Errorf("wal: wait durable: %w", ErrClosed)
		}
		l.barrierStep(int64(t))
	}
	return nil
}
