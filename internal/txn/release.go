package txn

// The release path: commit-LSN-ordered release per shard, unordered
// release, termination of a failed commit, and Abort.

import (
	"fmt"
	"slices"

	"repro/internal/history"
	"repro/internal/wal"
)

// enrollRelease registers txn as a committer of this shard whose commit
// ticket is not yet known (it has not staged its transaction-level commit
// record). Unresolved enrollments block every ordered release in the
// shard: an unresolved committer's eventual ticket may be smaller than
// any resolved one's only if it enrolled before they staged — exactly the
// window this blocking covers.
func (sh *engineShard) enrollRelease(txn history.TxnID) {
	sh.relMu.Lock()
	if sh.pending == nil {
		sh.pending = make(map[history.TxnID]wal.Ticket)
	}
	sh.pending[txn] = 0
	sh.relMu.Unlock()
}

// resolveRelease publishes txn's commit ticket, unblocking waiters whose
// turn it establishes.
func (sh *engineShard) resolveRelease(txn history.TxnID, tk wal.Ticket) {
	sh.relMu.Lock()
	sh.pending[txn] = tk
	sh.relCond.Broadcast()
	sh.relMu.Unlock()
}

// withdrawRelease removes an enrollment whose commit failed before a
// ticket existed (the log closed under the TxnCommitRec staging); the
// transaction terminates through the unordered release path.
func (sh *engineShard) withdrawRelease(txn history.TxnID) {
	sh.relMu.Lock()
	delete(sh.pending, txn)
	sh.relCond.Broadcast()
	sh.relMu.Unlock()
}

// awaitReleaseTurn blocks until txn is the next committer allowed to
// release this shard's locks: no other enrollment is unresolved, and no
// resolved one carries a smaller ticket. Deadlock-free: a committer never
// waits between enroll and resolve (so unresolved entries always resolve
// or withdraw), and resolved waiters are totally ordered by ticket — the
// smallest never blocks.
func (sh *engineShard) awaitReleaseTurn(txn history.TxnID) {
	sh.relMu.Lock()
	for {
		my := sh.pending[txn]
		blocked := false
		for other, tk := range sh.pending {
			if other != txn && (tk == 0 || tk < my) {
				blocked = true
				break
			}
		}
		if !blocked {
			break
		}
		sh.relCond.Wait()
	}
	sh.relMu.Unlock()
}

// finishRelease removes txn's enrollment after its locks at this shard
// are released, passing the turn to the next committer in commit-LSN
// order.
func (sh *engineShard) finishRelease(txn history.TxnID) {
	sh.relMu.Lock()
	delete(sh.pending, txn)
	sh.relCond.Broadcast()
	sh.relMu.Unlock()
}

// releaseLocks releases every lock the transaction holds at every touched
// object (waking waiters) and clears its wait edges in the deadlock
// detector. It runs on every Commit/Abort exit path — success or error —
// so no path can leak locks or leave stale waits-for edges behind. A
// non-zero commit ticket is published to each object while its latch is
// held: a transaction that acquires the released locks afterwards reads
// the ticket on its next operation and inherits this commit as a
// durability dependency.
func (t *Txn) releaseLocks(commit wal.Ticket) {
	e := t.eng
	for _, obj := range t.order {
		mo, ok := e.lookup(obj)
		if !ok {
			continue // vanished object: nothing left to release there
		}
		mo.mu.Lock()
		if commit > mo.commitTicket {
			mo.commitTicket = commit
			mo.commitWriter = t.id
		}
		mo.table.Release(t.id)
		mo.cond.Broadcast()
		mo.mu.Unlock()
	}
	_ = e.detector.ClearWaits(t.id) // no wound: a wait is only pending inside Invoke
}

// terminate abandons a commit that can no longer complete: every
// participant whose store has not already committed is aborted in memory
// (its effects undone per its recovery discipline, a terminal Abort event
// recorded), every lock is released, wait edges are cleared, and any
// staged compensation records are flushed. The phase-2a sweep commits
// participants in objs order, so the first `committed` entries are the
// ones whose store.Commit already ran — their effects are permanent and
// they keep their terminal Commit event — and a mid-sweep failure leaves
// every object with exactly one terminal history event instead of a
// transaction frozen half-committed with its effects visible and no
// terminal record. The transaction ends in the aborted state; cause is
// returned unchanged.
func (t *Txn) terminate(objs []history.ObjectID, committed int, cause error) error {
	e := t.eng
	t.state.Store(int32(aborted))
	for i, obj := range objs {
		mo, ok := e.lookup(obj)
		if !ok {
			continue // vanished object: nothing left to terminate there
		}
		mo.mu.Lock()
		if i >= committed {
			if err := mo.store.Abort(t.id); err == nil {
				e.record(mo, history.Event{Kind: history.Abort, Obj: obj, Txn: t.id})
			}
			// A failed undo (e.g. a log closed mid-shutdown) still
			// releases below; the cause already reports the failure.
		}
		mo.table.Release(t.id)
		mo.cond.Broadcast()
		mo.mu.Unlock()
	}
	_ = e.detector.ClearWaits(t.id) // no wound: a wait is only pending inside Invoke
	if t.wroteWAL {
		// Push the staged compensation records. A flush failure here means
		// the terminated transaction's undo trail may not be durable; the
		// caller's cause stays primary, with the flush failure joined so
		// neither is silent.
		if ferr := e.log.Flush(); ferr != nil {
			cause = fmt.Errorf("%w (and flushing compensation records: %w)", cause, ferr)
		}
	}
	t.obsEnd("terminated")
	return cause
}

// Abort aborts the transaction at every touched object, undoing its
// effects per each object's recovery discipline, releasing its locks on
// every exit path, then flushes the staged compensation records. The
// sweep is best-effort: a failure at one object (vanished, or an undo the
// store could not log — a log closed mid-shutdown) no longer abandons the
// rest, every other participant is still undone and released before the
// first error is returned. The failed participant itself keeps whatever
// effects its store could not undo (its locks are released regardless);
// the returned error reports it, and on the shutdown path the post-crash
// restart — not the dying process — is what terminates it. As with
// Commit, a WAL backend failure after a completed in-memory abort is
// reported as ErrDurability and counted in Metrics.DurabilityFailures.
func (t *Txn) Abort() error {
	if !t.state.CompareAndSwap(int32(active), int32(aborted)) {
		return fmt.Errorf("txn %s: abort: %w", t.id, ErrNotActive)
	}
	e := t.eng
	var firstErr error
	for _, obj := range t.sortedTouched() {
		mo, ok := e.lookup(obj)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("txn %s: abort: object %q vanished", t.id, obj)
			}
			continue
		}
		mo.mu.Lock()
		if err := mo.store.Abort(t.id); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("txn %s: abort at %s: %w", t.id, obj, err)
			}
		} else {
			e.record(mo, history.Event{Kind: history.Abort, Obj: obj, Txn: t.id})
		}
		mo.table.Release(t.id)
		mo.cond.Broadcast()
		mo.mu.Unlock()
	}
	_ = e.detector.ClearWaits(t.id) // no wound: a wait is only pending inside Invoke
	if t.wroteWAL {
		ferr := e.log.Flush()
		if ferr == nil {
			ferr = e.log.Err()
		}
		if firstErr == nil && ferr != nil {
			e.Metrics.DurabilityFailures.Add(1)
			t.obsEnd("durability-failure")
			return fmt.Errorf("txn %s: aborted in memory but WAL backend failed: %w: %w",
				t.id, ErrDurability, ferr)
		}
	}
	t.obsEnd("abort")
	if firstErr != nil {
		return firstErr
	}
	e.Metrics.Aborts.Add(1)
	return nil
}

// sortedTouched returns the touched set in object-ID order, sorted into
// the Txn's buffer.
func (t *Txn) sortedTouched() []history.ObjectID {
	objs := append(t.sortBuf[:0], t.order...)
	slices.Sort(objs)
	return objs
}

// releaseLocksOrdered releases the transaction's locks shard by shard in
// commit-LSN order: at each touched shard the committer waits until every
// shard committer with a smaller commit ticket (and every one whose
// ticket is still unresolved) has released there first, then releases its
// own locks and passes the turn. Commit tickets are stage stamps —
// totally ordered and consistent with LSN order — so within every shard,
// lock release order equals commit-LSN order, while different shards
// release in parallel (a committer done with shard i moves on while its
// successor releases i behind it). The commit ticket is published to each
// object under its latch exactly as releaseLocks does.
func (t *Txn) releaseLocksOrdered(groups []commitGroup, commit wal.Ticket) {
	e := t.eng
	for _, g := range groups {
		g.sh.awaitReleaseTurn(t.id)
		for _, obj := range g.objs {
			mo, ok := e.lookup(obj)
			if !ok {
				continue // vanished object: nothing left to release there
			}
			mo.mu.Lock()
			if commit > mo.commitTicket {
				mo.commitTicket = commit
				mo.commitWriter = t.id
			}
			mo.table.Release(t.id)
			mo.cond.Broadcast()
			mo.mu.Unlock()
		}
		g.sh.finishRelease(t.id)
	}
	_ = e.detector.ClearWaits(t.id) // no wound: a wait is only pending inside Invoke
}
