package txn

// Fuzzy checkpointing: Engine.Checkpoint walks the registry once — never
// stopping the world — capturing each undo-log object's
// update-in-place state and in-flight transaction table under that
// object's latch, stamping the capture with a wal.CheckpointRec marker
// staged under the same latch (so the marker's LSN splits the object's
// records exactly into captured and replayable), waiting for the WAL's
// durable watermark to cover the last marker, naming every marker's LSN
// from the ticket it was staged under, saving the snapshot through
// the configured checkpoint.Store, and finally truncating the durable log
// before the checkpoint frontier. recovery.RestartAllWithConfig is the
// consumer: it seeds object state from the snapshot and replays only the
// bounded suffix.
//
// Why the capture is sound without quiescing anything:
//
//   - Per-object atomicity: state, transaction table, and marker are taken
//     under the object latch, so each capture is one consistent instant of
//     that object's execution, and stamp order under the latch makes the
//     marker's LSN the exact cut.
//   - Effects without undo records: a transaction whose chain a capture no
//     longer sees (its per-object commit ran first) must already have its
//     transaction-level commit record staged — the commit gate (see
//     Engine.ckptGate) excludes captures from the store.Commit →
//     TxnCommitRec window — so it carries a stamp below the marker and is
//     covered by the checkpoint's durability wait: it can only be a
//     durable winner.
//   - Effects with undo records: in-flight transactions are captured into
//     the table; restart undoes them from the snapshot if they never
//     decide, or replays their suffix normally if they do (their decision
//     records necessarily stamp past the object's marker, hence past the
//     frontier, hence survive truncation).
//   - Frontier safety: the begin marker is staged before any capture and
//     before the walk reads the registry, so even an object registered
//     mid-checkpoint (and therefore possibly absent from the snapshot)
//     has all of its records past the frontier and replays in full.
//   - Completion rule: the snapshot is saved only after WaitDurable covers
//     the last marker. Everything any captured state reflects is below
//     that stamp and therefore durable — a checkpoint never claims state
//     the durable log cannot corroborate. A crash before the save leaves
//     the previous checkpoint authoritative (the store's save is atomic);
//     a crash between save and truncation is harmless because restart
//     skips the un-truncated prefix per object by marker LSN.

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// CheckpointOptions configures the engine's fuzzy checkpointer.
type CheckpointOptions struct {
	// Store is where completed snapshots are saved (required).
	Store checkpoint.Store
	// DisableTruncation keeps the durable log intact after a checkpoint —
	// for the oracle tests, which compare a checkpoint-seeded restart
	// against the full-log committed-winners oracle.
	DisableTruncation bool
}

// Checkpoint takes one fuzzy checkpoint and, unless disabled, truncates
// the write-ahead log before its frontier. It returns the completed
// snapshot. Concurrent transactions keep running throughout: the only
// exclusions are per-object latch holds and, around each capture, the
// commit protocol's decision window (see the package comment above).
// Checkpoint fails — taking no checkpoint and truncating nothing — if the
// log has no backend (it assigns no LSNs, so no marker could be named, and
// retains no records, so nothing could ever be restarted), the log is
// closed, the WAL backend has failed (durability of the capture cannot be
// established), or a captured machine cannot round-trip its state.
func (e *Engine) Checkpoint() (*checkpoint.Snapshot, error) {
	if e.opts.Checkpoint == nil || e.opts.Checkpoint.Store == nil {
		return nil, fmt.Errorf("txn: checkpoint: engine has no checkpoint store configured")
	}
	if !e.log.Durable() {
		return nil, fmt.Errorf("txn: checkpoint: engine's WAL has no backend and retains no records")
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	id := seqID("CKPT", e.ckptSeq.Add(1))

	// The begin marker fixes the frontier before any capture and before
	// any registry read: every record restart could need stamps after it.
	beginTk, err := e.log.AppendAsync(wal.Record{Kind: wal.CheckpointRec, Txn: id})
	if err != nil {
		return nil, fmt.Errorf("txn: checkpoint %s: %w", id, err)
	}
	lastTk := beginTk
	if e.redoOnly() {
		// Re-brand the log right past the frontier: truncation discards
		// everything before it — including the discipline marker NewEngine
		// staged as the first record — and a reopened truncated log must
		// still declare its discipline from its own contents.
		tk, err := e.log.AppendAsync(wal.DisciplineMarker(wal.DisciplineRedo))
		if err != nil {
			return nil, fmt.Errorf("txn: checkpoint %s: %w", id, err)
		}
		lastTk = tk
	}

	// The capture walk and the durability-plus-save tail are the two cost
	// phases a checkpoint has; the observer's histograms separate them so
	// the sweep can tell latch-hold cost from sync cost.
	o := e.obsv
	var capture0 time.Time
	if o != nil {
		capture0 = time.Now()
	}
	// Each capture keeps the ticket of the marker staged with it.
	type capture struct {
		obj    history.ObjectID
		marker wal.Ticket
		state  string
		active []checkpoint.ActiveTxn
	}
	// One walk over the registry, sorted once by ID, since Range follows
	// no fixed order. An object registered while Range runs is safe
	// whether or not the walk visits it: if visited, it is captured under
	// ckptGate and its latch like any other object; if not, it was stored
	// after the walk began, hence after the begin marker was staged, so
	// the marker precedes every record of it and restart replays it in
	// full. An object registered before the walk began is always visited.
	mos := e.ckptWalk[:0]
	e.objects.Range(func(_, v any) bool {
		if mo := v.(*managedObject); mo.kind == UndoLogRecovery {
			mos = append(mos, mo)
		}
		return true
	})
	e.ckptWalk = mos
	slices.SortFunc(mos, func(a, b *managedObject) int { return cmp.Compare(a.id, b.id) })
	caps := make([]capture, 0, len(mos))
	for _, mo := range mos {
		// Exclusive gate: no commit sweep is between discharging a chain
		// at this object and staging its TxnCommitRec while we look.
		e.ckptGate.Lock()
		mo.mu.Lock()
		var st string
		var active []checkpoint.ActiveTxn
		ul, isUndo := mo.store.(*recovery.UndoLog)
		if isUndo {
			st, active, err = ul.Capture()
			if err == nil {
				var tk wal.Ticket
				tk, err = e.log.AppendAsync(wal.Record{Kind: wal.CheckpointRec, Txn: id, Obj: mo.id})
				if err == nil {
					lastTk = tk
					caps = append(caps, capture{obj: mo.id, marker: tk, state: st, active: active})
				}
			}
		}
		mo.mu.Unlock()
		e.ckptGate.Unlock()
		if err != nil {
			return nil, fmt.Errorf("txn: checkpoint %s at %s: %w", id, mo.id, err)
		}
	}

	var captureNS int64
	var save0 time.Time
	if o != nil {
		captureNS = time.Since(capture0).Nanoseconds()
		save0 = time.Now()
	}

	// Completion rule: wait until the durable watermark covers the last
	// marker — and with it, by consistent-cut batching, every record any
	// capture reflects. A dead backend fails the checkpoint.
	if err := e.log.WaitDurable(lastTk); err != nil {
		return nil, fmt.Errorf("txn: checkpoint %s: durability: %w", id, err)
	}

	// Every marker's LSN follows from the ticket it was staged under.
	frontier := e.log.TicketLSN(beginTk)
	snap := &checkpoint.Snapshot{
		ID:         string(id),
		Frontier:   frontier,
		DurableLSN: e.log.DurableLSN(),
		Discipline: e.opts.LogDiscipline,
		Objects:    make([]checkpoint.ObjectSnapshot, 0, len(caps)),
	}
	for _, c := range caps {
		snap.Objects = append(snap.Objects, checkpoint.ObjectSnapshot{
			Obj: c.obj, MarkerLSN: e.log.TicketLSN(c.marker), State: c.state, Active: c.active,
		})
	}
	if !e.opts.Checkpoint.DisableTruncation {
		// Record the truncation point the log will actually realize — the
		// frontier clamped to the durable watermark and aligned to the
		// backend's boundary (segment starts, for the segmented backend) —
		// so the durable snapshot names the exact first LSN of the
		// post-truncation log.
		snap.TruncatedBefore = e.log.AlignTruncate(frontier)
	}
	if err := e.opts.Checkpoint.Store.Save(snap); err != nil {
		return nil, fmt.Errorf("txn: checkpoint %s: save: %w", id, err)
	}
	e.Metrics.Checkpoints.Add(1)
	if o != nil {
		o.RecordCheckpoint(captureNS, time.Since(save0).Nanoseconds())
		if o.Tracing() {
			o.TraceGlobal("checkpoint", capture0.Sub(o.Epoch).Nanoseconds(),
				time.Since(o.Epoch).Nanoseconds(),
				map[string]string{"objects": strconv.Itoa(len(caps))})
		}
	}
	if !e.opts.Checkpoint.DisableTruncation {
		n, err := e.log.TruncateBefore(frontier)
		e.Metrics.TruncatedRecords.Add(int64(n))
		if err != nil {
			// The snapshot is complete and durable; only reclamation
			// failed. Report it without invalidating the checkpoint.
			return snap, fmt.Errorf("txn: checkpoint %s: truncate: %w", id, err)
		}
	}
	return snap, nil
}
