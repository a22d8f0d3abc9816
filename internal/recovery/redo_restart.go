package recovery

// REDO-only restart: the recovery protocol of the dependency-logging
// discipline (see NewRedoOnlyLog and wal.DisciplineRedo). The durable log
// carries logical operation records (wal.RedoRec, no undo payload) and
// transaction-level commit records whose Deps field names the committed
// writers each winner read from. Restart is a forward-only pass:
//
//  1. Outcomes (pass 1, shared with the undo discipline): scan for
//     TxnCommitRecs — presumed abort, so a transaction without one is a
//     loser.
//
//  2. Redo winners (pass 2): replay ONLY winners' RedoRecs, per object in
//     LSN order, response-checking each against the machine. Losers are
//     simply never redone — there is no undo pass and restart appends
//     nothing to the log. Per-object LSN order refines commit-dependency
//     order (a winner's read-from dependency committed, and therefore
//     logged its conflicting operations, before the reader observed them),
//     so LSN-order replay IS dependency-order replay; the Deps sets are
//     additionally checked for closure under the winner set when the full
//     log is retained (a consistent-cut flush can never make a reader
//     durable without its dependency, so a violation means a torn log).
//
// Soundness is Theorem 9's equieffectiveness argument run in reverse:
// under an NRBC-containing conflict relation, the state reached by
// executing all operations and then aborting the losers via logical undo
// is equieffective to the state reached by executing the winners-only
// projection — which is exactly what this restart executes from the
// initial (or checkpointed) state, and why each winner's logged response
// is reproduced even though loser operations are missing from the replay.
//
// With a checkpoint, the captured state is dirty — it includes the
// effects of transactions in flight at capture time. The suffix replay
// redoes winners past each object's marker, and then the losers captured
// in the snapshot's in-flight tables are rolled back from their captured
// tokens (the one place the redo-only discipline still undoes anything:
// pre-capture loser effects are baked into the seed state and cannot be
// "not redone"). Equieffectiveness again makes the ordering of that
// rollback against the winner replay immaterial.

import (
	"fmt"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/wal"
)

// checkLogDiscipline rejects a log whose record kinds contradict its
// discipline marker before any replay happens — the mixed-discipline
// handoff (an undo-mode log reopened by a redo-only engine, or vice versa)
// must fail loudly, not mis-recover. A redo log may contain only RedoRec,
// TxnCommitRec, CheckpointRec, and DisciplineRec; an unmarked (undo) log
// must contain no RedoRec or DisciplineRec.
func checkLogDiscipline(snap []wal.Record, redo bool) error {
	for _, rec := range snap {
		switch rec.Kind {
		case wal.Update, wal.CommitRec, wal.CompensationRec, wal.AbortRec:
			if redo {
				return fmt.Errorf("recovery: mixed-discipline log: %s record at LSN %d in a redo-only log (written by an undo-mode engine?)",
					rec.Kind, rec.LSN)
			}
		case wal.RedoRec, wal.DisciplineRec:
			if !redo {
				return fmt.Errorf("recovery: mixed-discipline log: %s record at LSN %d in a log with no redo-discipline marker (written by a redo-only engine?)",
					rec.Kind, rec.LSN)
			}
		}
	}
	return nil
}

// checkDepClosure verifies that every winner's dependency set is itself a
// subset of the winner set. Because flush batches are consistent cuts, a
// durable TxnCommitRec can never precede the durable TxnCommitRec of a
// commit it read from — so a violation means the log is torn or the
// dependency capture is broken, and replaying the "winner" would redo
// reads from a transaction that never durably committed. Only meaningful
// on an untruncated log: truncation (and checkpoint folding) may discard
// the dependency's own commit record while the reader's survives.
func checkDepClosure(snap []wal.Record, winners map[history.TxnID]bool) error {
	for _, rec := range snap {
		if rec.Kind != wal.TxnCommitRec || !winners[rec.Txn] {
			continue
		}
		for _, d := range rec.Deps {
			if !winners[d] {
				return fmt.Errorf("recovery: dependency closure violated: winner %s depends on %s, which has no durable commit record",
					rec.Txn, d)
			}
		}
	}
	return nil
}

// restartRedoWith is pass 2 of the redo-only restart for one object:
// winners-only forward replay, optionally seeded from the object's
// checkpoint capture; idxs are the snapshot indices of obj's records,
// ascending. It never appends to the log and returns no tail —
// a redo-only restart leaves the durable log exactly as the crash left it,
// which makes the second-restart fixed point trivial.
func restartRedoWith(obj history.ObjectID, m adt.Machine, log *wal.Log,
	snap []wal.Record, idxs []int, winners map[history.TxnID]bool,
	seed *checkpoint.ObjectSnapshot, stats *RestartStats) (*UndoLog, error) {
	// The state replay runs on: the checkpoint's capture when seeded
	// (decoded below), the machine's initial state otherwise.
	var state adt.Value
	if seed == nil {
		state = m.Init()
	}

	// Checkpoint seeding: the captured dirty state plus the captured
	// in-flight tables. Losers in the table are rolled back after the
	// winner replay; winners in the table need nothing (their pre-capture
	// effects are in the seed state, their post-capture records replay).
	var markerLSN wal.LSN
	type capturedTxn struct {
		txn     history.TxnID
		pending []undoRec
	}
	var captured []capturedTxn
	if seed != nil {
		vc, ok := m.(adt.ValueCodec)
		if !ok {
			return nil, fmt.Errorf("recovery: restart %s: machine %s has no value codec for checkpoint state",
				obj, m.Name())
		}
		v, err := vc.DecodeValue(seed.State)
		if err != nil {
			return nil, fmt.Errorf("recovery: restart %s: checkpoint state: %w", obj, err)
		}
		state = v
		markerLSN = seed.MarkerLSN
		stats.SeededObjects++
		for _, at := range seed.Active {
			stats.SeededTxns++
			ct := capturedTxn{txn: at.Txn}
			for _, po := range at.Ops {
				var before any
				if po.HasUndo {
					c, ok := m.(adt.UndoTokenCodec)
					if !ok {
						return nil, fmt.Errorf("recovery: restart %s: machine %s has no undo token codec",
							obj, m.Name())
					}
					dec, err := c.DecodeUndoToken(po.Undo)
					if err != nil {
						return nil, fmt.Errorf("recovery: restart %s: checkpoint undo token of %s: %w",
							obj, at.Txn, err)
					}
					before = dec
				}
				ct.pending = append(ct.pending, undoRec{op: po.Op, before: before})
			}
			captured = append(captured, ct)
		}
	}

	// Forward replay: winners' RedoRecs past the marker, in LSN order.
	for _, i := range idxs {
		rec := &snap[i]
		if rec.LSN <= markerLSN {
			stats.Skipped++
			continue
		}
		switch rec.Kind {
		case wal.CheckpointRec:
			continue // capture markers carry no state
		case wal.RedoRec:
		default:
			// checkLogDiscipline already vetoed undo-discipline kinds;
			// reaching one here means the caller skipped that check.
			return nil, fmt.Errorf("recovery: redo-only restart %s: unexpected %s record at LSN %d",
				obj, rec.Kind, rec.LSN)
		}
		if !winners[rec.Txn] {
			stats.Skipped++ // a loser's operation: never redone
			continue
		}
		stats.Replayed++
		if err := redo(m, state, rec.Op); err != nil {
			return nil, fmt.Errorf("recovery: redo LSN %d: %w", rec.LSN, err)
		}
	}

	// Roll back the losers the checkpoint captured in flight: their
	// pre-capture effects are baked into the seed state. Newest-first per
	// transaction, transactions in capture order (Capture sorts by ID).
	for _, ct := range captured {
		if winners[ct.txn] {
			continue
		}
		for i := len(ct.pending) - 1; i >= 0; i-- {
			if err := ct.pending[i].undo(m, state); err != nil {
				return nil, fmt.Errorf("recovery: redo-only restart %s: undo of captured loser %s: %w",
					obj, ct.txn, err)
			}
			stats.Undone++
		}
	}

	return newUndoLog(obj, m, state, log, true), nil
}
