package txn

// The release path: Commit's lock release, termination of a failed
// commit, and Abort.

import (
	"fmt"
	"slices"

	"repro/internal/history"
	"repro/internal/wal"
)

// releaseLocks is Commit's one lock release: it releases every lock the
// transaction holds at every touched object, waking waiters. It leaves the
// deadlock detector alone: every exit from Invoke's wait loop has already
// removed the transaction's entry there. A non-zero commit ticket is
// published to each object as a max while its latch is held: a
// transaction that acquires the released locks afterwards reads the
// ticket on its next operation and inherits this commit as a durability
// dependency. Committers release in whatever order the schedule gives
// them; see Commit for why that order is immaterial.
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
}

// terminate abandons a commit that can no longer complete: every
// participant whose store has not already committed is aborted in memory
// (its effects undone per its recovery discipline, a terminal Abort event
// recorded), every lock is released, and any staged compensation records
// are flushed. The phase-2a sweep commits
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
				e.record(history.Event{Kind: history.Abort, Obj: obj, Txn: t.id})
			}
			// A failed undo (e.g. a log closed mid-shutdown) still
			// releases below; the cause already reports the failure.
		}
		mo.table.Release(t.id)
		mo.cond.Broadcast()
		mo.mu.Unlock()
	}
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
			e.record(history.Event{Kind: history.Abort, Obj: obj, Txn: t.id})
		}
		mo.table.Release(t.id)
		mo.cond.Broadcast()
		mo.mu.Unlock()
	}
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
