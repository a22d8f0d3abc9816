// Package b holds stagebeforemutate's passing fixtures: stage-first
// ordering, REDO-only paths that never stage, and conditional staging.
package b

import "wal"

type UndoLog struct {
	log     *wal.Log
	machine Machine
	current map[string]int
	chain   map[uint64][]int
}

// Machine stands in for an ADT machine whose steps change a state in place.
type Machine struct{}

func (Machine) Apply(v map[string]int, op string) error { return nil }
func (Machine) Peek(v map[string]int, op string) error  { return nil }

// stageThenWrite is the discipline: the record is durable-stageable
// before the in-place state moves.
func (u *UndoLog) stageThenWrite(k string, v int) error {
	if _, err := u.log.AppendAsync(wal.Record{}); err != nil {
		return err
	}
	u.current[k] = v
	return nil
}

// redoOnlyApply never stages: replay applies already-logged records, so
// the mutation needs no new record.
func (u *UndoLog) redoOnlyApply(k string, v int) {
	u.current[k] = v
}

// conditionalStage stages on the undo-mode branch only; the merge ORs
// the staged flag, so the mutation after the branch stays silent.
func (u *UndoLog) conditionalStage(k string, v int, undo bool) error {
	if undo {
		if _, err := u.log.AppendAsync(wal.Record{}); err != nil {
			return err
		}
	}
	u.current[k] = v
	return nil
}

// stageThenApply stages the record, then lets the machine change the
// state in place; the Peek before the stage only reads it.
func (u *UndoLog) stageThenApply(op string) error {
	if err := u.machine.Peek(u.current, op); err != nil {
		return err
	}
	if _, err := u.log.AppendAsync(wal.Record{}); err != nil {
		return err
	}
	return u.machine.Apply(u.current, op)
}

type Txn struct {
	log *wal.Log
}

func (t *Txn) releaseLocks() {}

// commitRightOrder stages the commit record, then releases.
func (t *Txn) commitRightOrder() error {
	if _, err := t.log.AppendAsync(wal.Record{}); err != nil {
		return err
	}
	t.releaseLocks()
	return nil
}

// abortSweep releases without ever staging on this path — the abort
// records were staged by the compensation sweep, not here.
func (t *Txn) abortSweep() {
	t.releaseLocks()
}
