package txn

// The acquire path: Invoke takes operation locks, waits on conflicts and
// aborts itself when a waits-for cycle chooses it as the victim.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/locking"
	"repro/internal/spec"
)

// Invoke executes one operation on an object, blocking while conflicting
// locks are held. Under the object latch it runs the type's machine once:
// the store's Peek yields the response, the lock is checked against that
// response (locking is result-dependent), and the store's Apply performs
// the same step in place. A waits-for cycle aborts its youngest
// member (latest Begin), so the oldest transaction in a deadlock survives.
// If that is this transaction — whether its own request closed the cycle
// or another requester's did while it waited — it is fully aborted and an
// error wrapping both *locking.ErrDeadlock and ErrAborted is returned. On
// adt.ErrNotEnabled (partial invocation) the transaction stays active and
// the caller may retry, invoke something else, or abort.
func (t *Txn) Invoke(obj history.ObjectID, inv spec.Invocation) (spec.Response, error) {
	if txnState(t.state.Load()) != active {
		return "", fmt.Errorf("txn %s: invoke %s: %w", t.id, inv, ErrNotActive)
	}
	e := t.eng
	mo, ok := e.lookup(obj)
	if !ok {
		return "", fmt.Errorf("txn %s: unknown object %q", t.id, obj)
	}

	mo.mu.Lock()
	blocked := false
	// waitStart/waitHolder capture the first conflict of this invocation:
	// the lock-wait histogram records the full first-block-to-success
	// duration, and the trace labels the span with the first holder seen.
	var waitStart time.Time
	var waitHolder history.TxnID
	for {
		// One machine step: Peek computes the response the lock is
		// checked against, and Apply performs that same step in place.
		// The step is valid only under this latch hold, so every pass of
		// the loop — after each wait — peeks afresh.
		step, err := mo.store.Peek(t.id, inv)
		if err != nil {
			mo.mu.Unlock()
			if errors.Is(err, adt.ErrNotEnabled) {
				e.Metrics.NotEnabled.Add(1)
				// Nothing was recorded or locked; the transaction stays
				// active and the caller may retry, do something else, or
				// abort.
				return "", fmt.Errorf("txn %s: %s on %s: %w", t.id, inv, obj, err)
			}
			return "", fmt.Errorf("txn %s: peek %s on %s: %w", t.id, inv, obj, err)
		}
		res := step.Res
		op := spec.Op(inv, res)
		// The conflict list is appended into the Txn's own buffer. The
		// detector keeps it as this transaction's edges until ClearWaits,
		// which every path back to this line runs first (and a wound drops
		// the edges), so the buffer is never rewritten while it is shared.
		// Every exit from this loop leaves no detector entry behind: a
		// failed AddWaits removes its own, and both wake paths below clear
		// it, so commit and abort never touch the detector.
		holders := mo.table.Conflicting(t.conflictBuf[:0], op, t.id)
		if len(holders) == 0 {
			if err := mo.store.Apply(t.id, step); err != nil {
				mo.mu.Unlock()
				return "", fmt.Errorf("txn %s: apply %s on %s: %w", t.id, inv, obj, err)
			}
			mo.table.Add(t.id, op)
			t.touch(mo)
			// Inherit the object's last committed writer as a durability
			// dependency (checked on every operation, not just first
			// touch: an unconflicting commit may advance the ticket
			// between two of this transaction's operations).
			if mo.commitTicket > t.dep {
				t.dep = mo.commitTicket
			}
			if e.redoOnly() && mo.commitWriter != "" && mo.commitWriter != t.id {
				if t.depTxns == nil {
					t.depTxns = make(map[history.TxnID]bool)
				}
				t.depTxns[mo.commitWriter] = true
			}
			// Record the completed operation under the latch so the global
			// history preserves the object's true execution order.
			// Invocations are recorded only when they complete, so failed
			// or retried invocations never leave a dangling pending
			// invocation in the history.
			e.record(history.Event{Kind: history.Invoke, Obj: obj, Txn: t.id, Inv: inv})
			e.record(history.Event{Kind: history.Respond, Obj: obj, Txn: t.id, Res: res})
			mo.mu.Unlock()
			e.Metrics.Operations.Add(1)
			if blocked {
				e.Metrics.Blocked.Add(1)
				if o := t.obs; o != nil {
					waitNS := time.Since(waitStart).Nanoseconds()
					o.RecordLockWait(waitNS)
					if t.trace != nil {
						end := time.Since(o.Epoch).Nanoseconds()
						t.trace.Span("block", end-waitNS, end, map[string]string{
							"obj": string(obj), "holder": string(waitHolder)})
					}
				}
			}
			return res, nil
		}
		// Conflict: declare the wait, check for deadlock, and sleep.
		wake, err := e.detector.AddWaits(locking.Waiter{ID: t.id, Prio: t.seq, Wake: mo}, holders)
		if err != nil {
			mo.mu.Unlock()
			return "", t.deadlockAbort(obj, err)
		}
		if wake != nil {
			// The cycle this request closed chose a younger member that is
			// asleep: it is wounded and must be woken to abort itself. Its
			// latch is taken only after this one is released (latches never
			// nest), so the request is re-evaluated from the top.
			mo.mu.Unlock()
			wake.Wake()
			mo.mu.Lock()
			if err := e.detector.ClearWaits(t.id); err != nil {
				mo.mu.Unlock()
				return "", t.deadlockAbort(obj, err)
			}
			continue
		}
		if t.obs != nil && !blocked {
			waitStart = time.Now()
			waitHolder = holders[0]
		}
		blocked = true
		e.Metrics.BlockEvents.Add(1)
		mo.cond.Wait()
		// A cycle closed by another requester while this transaction slept
		// may have chosen it as the victim; it aborts itself here, on its
		// own goroutine.
		if err := e.detector.ClearWaits(t.id); err != nil {
			mo.mu.Unlock()
			return "", t.deadlockAbort(obj, err)
		}
	}
}

// deadlockError is the error a deadlock victim's Invoke returns: the
// detector's *locking.ErrDeadlock joined with ErrAborted. It is built
// without formatting; Error renders what fmt.Errorf("txn %s: %w: %w", txn,
// cause, ErrAborted) would, only when asked.
type deadlockError struct {
	txn  history.TxnID
	errs [2]error // the *locking.ErrDeadlock, then ErrAborted
}

func (e *deadlockError) Error() string {
	return "txn " + string(e.txn) + ": " + e.errs[0].Error() + ": " + e.errs[1].Error()
}

func (e *deadlockError) Unwrap() []error { return e.errs[:] }

// deadlockAbort aborts the transaction as the victim of the deadlock
// cause reports, returning the error Invoke surfaces: cause (an
// *locking.ErrDeadlock) joined with ErrAborted. The caller holds no latch.
func (t *Txn) deadlockAbort(obj history.ObjectID, cause error) error {
	t.eng.Metrics.Deadlocks.Add(1)
	if t.trace != nil {
		t.trace.Instant("deadlock", time.Since(t.obs.Epoch).Nanoseconds(),
			map[string]string{"obj": string(obj)})
	}
	if err := t.Abort(); err != nil && !errors.Is(err, ErrNotActive) {
		return fmt.Errorf("txn %s: deadlock victim abort failed: %w", t.id, err)
	}
	return &deadlockError{txn: t.id, errs: [2]error{cause, ErrAborted}}
}

// Wake implements locking.Waker: it rouses every transaction sleeping on
// the object, so a deadlock victim among them sees its wound.
func (mo *managedObject) Wake() {
	mo.mu.Lock()
	mo.cond.Broadcast()
	mo.mu.Unlock()
}

func (t *Txn) touch(mo *managedObject) {
	if !slices.Contains(t.order, mo.id) {
		t.order = append(t.order, mo.id)
	}
	if mo.kind == UndoLogRecovery {
		t.wroteWAL = true
	}
}
