package wal

import (
	"fmt"
	"time"
)

// Flush guarantees that every record staged before the call has been
// sequenced, written and synced — or its round has failed — when it
// returns: it is a commit barrier for everything staged so far (see the
// package comment for when a barrier waits and when it leads a round). A
// failed backend round does not block the barrier (the in-memory log stays
// usable); it is recorded and exposed by Err, which
// durability-requiring callers must check, or they use WaitDurable, which
// reports it. Flush on a closed log returns an error wrapping ErrClosed;
// everything staged before Close was already drained by Close itself. On a
// sink there is nothing to sequence and Flush returns at once.
func (l *Log) Flush() error {
	if l.closing.Load() {
		return fmt.Errorf("wal: flush: %w", ErrClosed)
	}
	if l.backend == nil {
		return nil
	}
	t := l.stampSeq.Load()
	l.mu.Lock()
	for l.doneTicket < t {
		l.barrierStep(t)
	}
	l.mu.Unlock()
	return nil
}

// barrierStep moves a barrier for ticket t one step, with mu held (it is
// released while the step waits or leads): if t is already in a round in
// flight — or was never issued — wait for the next round to complete;
// otherwise sequence a round on the calling goroutine at once.
func (l *Log) barrierStep(t int64) {
	if l.seqTicket >= t || t > l.stampSeq.Load() {
		l.durableCond.Wait()
		return
	}
	l.mu.Unlock()
	l.flushOnce()
	l.mu.Lock()
}

// awaitIdle waits, with mu held, until no round is in flight. Callers hold
// flushMu too, so no new round can start: the watermark and the error
// state are then final for everything sequenced.
func (l *Log) awaitIdle() {
	for len(l.rounds) > 0 {
		l.durableCond.Wait()
	}
}

// sequenceStaged guarantees every record staged before the call has been
// sequenced when it returns, even on a closing log. It is what the read
// accessors (Records, Stats, SegmentBounds, ...) use in place of a bare
// Flush: Flush on a closing log returns ErrClosed WITHOUT sequencing, so a
// reader that discarded the error could serve a view missing records
// staged just before Close began. On that error the caller joins the
// sequencer directly — flushMu orders the call against Close's final
// drain.
func (l *Log) sequenceStaged() {
	if err := l.Flush(); err != nil {
		l.flushOnce()
	}
}

// round is one flush round between its sequencing and its completion,
// named by its ticket.
type round struct {
	ticket int64 // ticket of the batch's last record
	lsn    LSN   // the batch's last LSN
	done   bool
	err    error // the round's own failure: encode, write, sync, or closed backend
}

// flushOnce runs one flush round on the calling goroutine. Under flushMu
// it takes the whole staging queue (swapping in the reused batch buffer),
// assigns the batch one contiguous LSN range in queue order (chaining each
// record to its transaction's previous record), registers the round,
// encodes the batch once and writes the frame to the backend. Outside
// flushMu it syncs the backend, then completes the round (see
// completeRound) — which applies only once every earlier round has
// completed, so flushOnce may return before its round's effects are
// visible. An empty drain runs no round.
func (l *Log) flushOnce() {
	l.flushMu.Lock()
	// Take the queue whole: the batch is every record staged before the
	// drain, and every record staged after it carries a larger ticket. Each
	// durable batch is therefore a ticket prefix of the log — a boundary
	// between batches can never separate a record from a causally earlier
	// one, which is what makes the durable winner set of crash recovery
	// closed under read-from (a committed reader's TxnCommitRec can never be
	// durable without the commit it read from).
	l.stageMu.Lock()
	if len(l.staged) == 0 {
		l.stageMu.Unlock()
		l.flushMu.Unlock()
		return
	}
	batch := l.staged
	ticket := l.stampSeq.Load()
	l.staged, l.batchBuf = l.batchBuf, nil
	l.stageMu.Unlock()
	n := len(batch)
	// Only a log with a backend stages, so a batch always has one. The
	// batch is sequenced in place and is itself what the crash hook and the
	// backend see.
	l.mu.Lock()
	for i := range batch {
		r := &batch[i]
		r.LSN = l.lastLSN + LSN(i) + 1
		r.PrevLSN = l.lastOf[r.Txn]
		l.advance(r)
	}
	l.lastLSN += LSN(n)
	l.replay = nil
	l.seqTicket = ticket
	l.rounds = append(l.rounds, round{ticket: ticket, lsn: batch[n-1].LSN})
	l.mu.Unlock()
	index := l.flushes.Add(1) - 1
	l.flushed.Add(int64(n))
	o := l.obsv.Load()
	o.RecordFlushBatch(int64(n))
	if !l.crashed && l.crash != nil && l.crash(int(index), batch) {
		l.crashed = true
	}
	// Encode the batch once, outside mu (only flushMu, which serializes
	// every backend write anyway): the frame is both what the backend
	// writes and, once written, what Bytes counts. An unencodable batch
	// hands no byte to the backend.
	encErr := l.encodeFrame(batch)
	// Decide what reaches the backend. A simulated crash acknowledges
	// without writing — the contract of CrashPoint is that the dying
	// machine's acknowledgements continue. A dead log writes nothing: the
	// earlier round that failed completes first and fails this one.
	var err error
	var write0 time.Time
	var writeNS int64
	synced := false
	switch {
	case l.backendGone:
		err = fmt.Errorf("wal: %d records sequenced after close never reached the backend: %w", n, ErrClosed)
	case l.crashed, l.dead.Load():
	case encErr != nil:
		err = encErr
	default:
		if o != nil {
			write0 = time.Now()
		}
		err = l.backend.Write(batch, l.frame)
		if o != nil {
			writeNS = time.Since(write0).Nanoseconds()
		}
		synced = err == nil
		if synced {
			l.bytes += int64(len(l.frame))
		}
	}
	if err != nil {
		// Before the next round may write: a batch after this one's hole
		// would make the file unreplayable.
		l.dead.Store(true)
	}
	// The batch becomes the next round's spare queue, holding no payload.
	clear(batch)
	l.batchBuf = batch[:0]
	if n > maxRetainedBatch {
		// An outsized batch (a Close drain after a stall) does not pin its
		// buffers for the log's lifetime.
		l.batchBuf, l.frame = nil, nil
	}
	l.flushMu.Unlock()
	if synced {
		var sync0 time.Time
		if o != nil {
			sync0 = time.Now()
		}
		err = l.backend.Sync()
		if o != nil {
			o.RecordFlushSync(writeNS + time.Since(sync0).Nanoseconds())
		}
	}
	l.completeRound(ticket, err)
}

// completeRound records the outcome of the round named by ticket, then
// applies every completed round at the head of the queue, strictly in
// round order: the first failure becomes the sticky error, a round moves
// the watermark only if no round up to and including it has failed, and
// barriers are woken.
func (l *Log) completeRound(ticket int64, err error) {
	if err != nil {
		l.dead.Store(true)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.rounds {
		if l.rounds[i].ticket == ticket {
			l.rounds[i].done, l.rounds[i].err = true, err
			break
		}
	}
	applied := 0
	for _, r := range l.rounds {
		if !r.done {
			break
		}
		if r.err != nil && l.syncErr == nil {
			l.syncErr = r.err
		}
		if l.syncErr == nil {
			l.durableTicket, l.durableLSN = r.ticket, r.lsn
		}
		l.doneTicket = r.ticket
		applied++
	}
	if applied > 0 {
		rest := copy(l.rounds, l.rounds[applied:])
		clear(l.rounds[rest:])
		l.rounds = l.rounds[:rest]
		l.durableCond.Broadcast()
	}
}

// maxRetainedBatch bounds the batch size whose flush buffers are kept for
// reuse.
const maxRetainedBatch = 4096

// encodeFrame encodes recs into the reused frame buffer. Caller holds
// flushMu.
func (l *Log) encodeFrame(recs []Record) error {
	l.frame = l.frame[:0]
	for i := range recs {
		var err error
		if l.frame, err = appendRecord(l.frame, recs[i]); err != nil {
			return err
		}
	}
	return nil
}
