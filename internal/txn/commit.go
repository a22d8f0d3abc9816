package txn

// The commit path: the two-phase sweep, the transaction-level commit
// record, early lock release and the durability barrier.

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// Commit commits the transaction at every touched object using a two-phase
// sweep: prepare (validate) all objects, then commit at each while still
// holding its locks, stage the transaction-level commit record, and
// release locks before the durability barrier, publishing the commit
// ticket to every touched object (early lock release). With the
// single-process engine the prepare phase cannot fail after successful
// operations, but the structure mirrors the atomic-commitment protocols
// the paper's model assumes.
//
// The wal.TxnCommitRec staged between the per-object sweep and the lock
// release is the transaction's single durable commit point: restart is
// presumed-abort, so the transaction survives a crash if and only if this
// record reached the backend (the per-object CommitRecs are redo hints
// only). Staging it before any lock is released means every transaction
// that observes this one's committed state stages its own records — and
// its own TxnCommitRec — strictly later, so a durable log prefix can never
// contain a dependent winner without its predecessor.
//
// The order in which committers release their locks is immaterial, and
// the schedule decides it: two concurrent commits may release in either
// order of their tickets. Release publishes the ticket to every touched
// object as a max under the object latch, so a dependent's t.dep is at
// least the ticket of every commit whose locks it acquired. The durable
// watermark advances only over a prefix of tickets, so the dependent's
// WaitDurable(dep) covers every smaller ticket too, whichever committer
// released first.
//
// Commit is the group-commit point: the flush barrier batches this
// transaction's staged records — and those of every concurrently
// committing transaction — into one contiguous LSN assignment, returning
// only after the batch reaches the log's durability backend; the barrier
// additionally waits until the durable watermark covers the transaction's
// dependency ticket (the commits it read from). A backend failure is
// reported as ErrDurability. If the failure precedes this transaction's
// in-memory commit point and its read-from set is unsynced, the
// transaction is terminated through the abort path (the error also wraps
// ErrAborted, counted in Metrics.DurabilityAborts); past that point it is
// committed in memory with the durable log behind (counted in
// Metrics.DurabilityFailures). Neither outcome is ever a clean
// acknowledgement on top of an unsynced loser.
func (t *Txn) Commit() error {
	if !t.state.CompareAndSwap(int32(active), int32(committed)) {
		return fmt.Errorf("txn %s: commit: %w", t.id, ErrNotActive)
	}
	e := t.eng
	o := t.obs
	start := time.Now()
	hold := func() {
		d := time.Since(start).Nanoseconds()
		e.Metrics.CommitHoldNS.Add(d)
		o.RecordCommitHold(d)
	}
	// The sweep (and terminate's already-committed bookkeeping) runs in
	// object-ID order, the order Abort uses.
	objs := t.sortedTouched()
	// Phase 1: prepare — verify every participant is still registered. A
	// failure here terminates cleanly: nothing has committed yet, so every
	// participant is aborted and the transaction leaves no effects behind.
	for _, obj := range objs {
		if _, ok := e.lookup(obj); !ok {
			hold()
			return t.terminate(objs, 0,
				fmt.Errorf("txn %s: prepare: object %q vanished", t.id, obj))
		}
	}
	// Durability gate: a transaction whose read-from set is not yet
	// durable is ordered behind it (DependencyStalls measures how often
	// early release actually ran ahead of the log). If the backend has
	// already failed, that dependency can never become durable —
	// terminate through the abort path instead of committing in memory on
	// top of an unsynced loser.
	if t.dep > 0 && !e.log.IsDurable(t.dep) {
		e.Metrics.DependencyStalls.Add(1)
		t.stalled = true
		if err := e.log.Err(); err != nil {
			e.Metrics.DurabilityAborts.Add(1)
			hold()
			return t.terminate(objs, 0,
				fmt.Errorf("txn %s: read from a commit the WAL backend never persisted: %w: %w: %w",
					t.id, ErrDurability, ErrAborted, err))
		}
	}
	// Staging phase: every participant's per-object commit record is
	// staged up front, in one batch (one WAL staging-queue acquisition),
	// outside the checkpoint gate. Staging discharges nothing: a fuzzy
	// capture interleaving here still sees every undo chain intact (the
	// transaction is captured as in-flight), and restart decides winners
	// by the transaction-level record alone (per-object CommitRecs are
	// redo hints), so hoisting the staging out narrows the gate hold to
	// the discharge→decision window below. A staging failure terminates
	// with nothing committed: every chain is intact for a clean abort.
	// stageNS accumulates the WAL staging cost of this commit (the batch
	// staging below plus the transaction-level record) for the WAL-stage
	// histogram.
	var stageNS int64
	if t.wroteWAL {
		var stage0 time.Time
		if o != nil {
			stage0 = time.Now()
		}
		// The batch's record buffer lives on the stack: AppendBatchAsync
		// copies what it stages, and records reach it by value.
		var recBuf [4]wal.Record
		recs := recBuf[:0]
		for _, obj := range objs {
			mo, ok := e.lookup(obj)
			if !ok {
				hold()
				return t.terminate(objs, 0,
					fmt.Errorf("txn %s: commit: object %q vanished", t.id, obj))
			}
			if bc, ok := mo.store.(recovery.BatchCommitter); ok {
				if r, ok := bc.CommitRecord(t.id); ok {
					recs = append(recs, r)
				}
			}
		}
		if _, err := e.log.AppendBatchAsync(recs); err != nil {
			hold()
			return t.terminate(objs, 0,
				fmt.Errorf("txn %s: staging commit records: %w", t.id, err))
		}
		if o != nil {
			stageNS += time.Since(stage0).Nanoseconds()
		}
	}
	// Phase 2a: commit at each object while holding its locks. The
	// per-object CommitRec staged by an undo-log store (batched above) is
	// a redo hint; the commit decision itself is the transaction-level
	// record below. A mid-sweep failure terminates:
	// already-committed participants keep their terminal Commit event, the
	// rest are aborted, and no transaction-level commit record is staged —
	// restart sees a loser.
	//
	// The checkpoint gate is held (shared) across the discharge sweep and
	// the staging of the transaction-level commit record: a fuzzy
	// checkpoint capture (which holds it exclusively) can therefore never
	// observe an object whose chain this transaction already discharged
	// while the commit decision is still unstaged — the window that would
	// let a snapshot bake in effects that a crash could make un-undoable.
	var gate0 time.Time
	if t.trace != nil {
		gate0 = time.Now()
	}
	e.ckptGate.RLock()
	gated := true
	ungate := func() {
		if gated {
			gated = false
			e.ckptGate.RUnlock()
			if t.trace != nil {
				t.trace.Span("ckpt-gate", gate0.Sub(o.Epoch).Nanoseconds(),
					time.Since(o.Epoch).Nanoseconds(), nil)
			}
		}
	}
	defer ungate()
	committed := 0
	for _, obj := range objs {
		mo, ok := e.lookup(obj)
		if !ok {
			ungate()
			hold()
			return t.terminate(objs, committed,
				fmt.Errorf("txn %s: commit: object %q vanished", t.id, obj))
		}
		mo.mu.Lock()
		if bc, isBatch := mo.store.(recovery.BatchCommitter); isBatch {
			// Records already staged above; the discharge cannot fail.
			bc.CommitStaged(t.id)
		} else if err := mo.store.Commit(t.id); err != nil {
			mo.mu.Unlock()
			ungate()
			hold()
			return t.terminate(objs, committed,
				fmt.Errorf("txn %s: commit at %s: %w", t.id, obj, err))
		}
		e.record(history.Event{Kind: history.Commit, Obj: obj, Txn: t.id})
		mo.mu.Unlock()
		committed++
	}
	// The durable commit point, staged exactly once, after every object's
	// commit processing and before any lock release.
	var ticket wal.Ticket
	if t.wroteWAL {
		rec := wal.Record{Kind: wal.TxnCommitRec, Txn: t.id}
		if e.redoOnly() && len(t.depTxns) > 0 {
			// The redo-only discipline reifies the read-from set durably:
			// restart audits every winner's Deps for closure under the
			// winner set (consistent-cut batching makes any violation a
			// torn log). Sorted, so the record is deterministic.
			deps := make([]history.TxnID, 0, len(t.depTxns))
			for d := range t.depTxns {
				deps = append(deps, d)
			}
			slices.Sort(deps)
			rec.Deps = deps
		}
		var stage0 time.Time
		if o != nil {
			stage0 = time.Now()
		}
		tk, err := e.log.AppendAsync(rec)
		if o != nil {
			stageNS += time.Since(stage0).Nanoseconds()
		}
		if err != nil {
			// The log closed under us (Commit racing Engine.Close): the
			// transaction is committed in memory but its commit decision
			// never reached the log. No ticket will ever exist, so the
			// locks are released publishing none.
			ungate()
			t.releaseLocks(0)
			hold()
			e.Metrics.DurabilityFailures.Add(1)
			t.obsEnd("durability-failure")
			return fmt.Errorf("txn %s: committed in memory but WAL closed: %w: %w",
				t.id, ErrDurability, err)
		}
		ticket = tk
		if o != nil {
			o.RecordWALStage(stageNS)
			if t.trace != nil {
				t.trace.Instant("stage", time.Since(o.Epoch).Nanoseconds(),
					map[string]string{"ticket": strconv.FormatInt(int64(ticket), 10)})
			}
		}
	}
	ungate()
	// Phase 2b: release locks and wake waiters before the barrier (early
	// release), publishing the commit ticket so dependents inherit this
	// commit's durability point.
	t.releaseLocks(ticket)
	hold()
	// The barrier makes the commit durable: wait until the durable
	// watermark covers both this transaction's own commit record and its
	// dependency ticket, sequencing a group-commit round if none in flight
	// holds them. With consistent-cut batches the dependency is sequenced
	// no later than the transaction's own records, so one wait covers
	// both; if a round up to theirs failed it returns the sticky error
	// instead of acknowledging.
	if t.wroteWAL || t.dep > 0 {
		var b0 time.Time
		if o != nil {
			b0 = time.Now()
		}
		err := e.log.WaitDurable(max(t.dep, ticket))
		if o != nil {
			d := time.Since(b0).Nanoseconds()
			o.RecordBarrierWait(d, t.stalled)
			if t.trace != nil {
				end := time.Since(o.Epoch).Nanoseconds()
				t.trace.Span("barrier", end-d, end, nil)
			}
		}
		if err != nil {
			// The transaction is committed in memory (locks are released,
			// effects visible) but the durable log is behind: fail loudly
			// rather than ack a commit the backend never persisted.
			e.Metrics.DurabilityFailures.Add(1)
			t.obsEnd("durability-failure")
			return fmt.Errorf("txn %s: committed in memory but WAL backend failed: %w: %w",
				t.id, ErrDurability, err)
		}
	}
	e.Metrics.Commits.Add(1)
	t.obsEnd("commit")
	return nil
}
