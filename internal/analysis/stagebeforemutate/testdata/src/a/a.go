// Package a holds stagebeforemutate's failing fixtures: UndoLog state
// mutated, and Txn locks released, before the covering record is staged.
package a

import "wal"

type UndoLog struct {
	log     *wal.Log
	machine Machine
	current map[string]int
	chain   map[uint64][]int
}

// Machine stands in for an ADT machine whose steps change a state in place.
type Machine struct{}

func (Machine) Apply(v map[string]int, op string) error           { return nil }
func (Machine) UndoWithBefore(v map[string]int, op string, b any) {}

// writeThenStage mutates update-in-place state before staging the record
// that describes the change: a crash in between persists unexplained state.
func (u *UndoLog) writeThenStage(k string, v int) error {
	u.current[k] = v // want `mutation of u\.current precedes the WAL stage call at .*: records must be staged before state mutates`
	if _, err := u.log.AppendAsync(wal.Record{}); err != nil {
		return err
	}
	return nil
}

// dropChainThenStage discards a transaction's undo chain before the
// completion record is staged.
func (u *UndoLog) dropChainThenStage(tid uint64) {
	delete(u.chain, tid) // want `delete from u\.chain precedes the WAL stage call`
	u.log.AppendAsync(wal.Record{})
}

// applyThenStage changes the state in place through the machine before
// staging the record: the same window as an assignment, without one.
func (u *UndoLog) applyThenStage(op string) error {
	if err := u.machine.Apply(u.current, op); err != nil { // want `machine Apply on u\.current precedes the WAL stage call`
		return err
	}
	_, err := u.log.AppendAsync(wal.Record{})
	return err
}

// undoThenStage undoes in place before staging the compensation record.
func (u *UndoLog) undoThenStage(op string) {
	u.machine.UndoWithBefore(u.current, op, nil) // want `machine UndoWithBefore on u\.current precedes the WAL stage call`
	u.log.AppendAsync(wal.Record{})
}

type Txn struct {
	log *wal.Log
}

func (t *Txn) releaseLocks() {}

// commitWrongOrder releases locks before the commit record is staged: a
// dependent transaction could stage its records ahead of this decision.
func (t *Txn) commitWrongOrder() error {
	t.releaseLocks() // want `lock release t\.releaseLocks precedes the WAL stage call`
	_, err := t.log.AppendAsync(wal.Record{})
	return err
}
