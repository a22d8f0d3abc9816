package recovery

import (
	"repro/internal/history"
	"repro/internal/spec"
)

// RedoOnly reports whether the store logs under the REDO-only discipline,
// for the external crash tests' check of the discipline restart chose.
func (u *UndoLog) RedoOnly() bool { return u.redoOnly }

// PeekApply runs inv for txn on s the way the engine does, minus the
// lock check: one Peek, whose Step Apply then installs. It returns the
// step's response.
func PeekApply(s Store, txn history.TxnID, inv spec.Invocation) (spec.Response, error) {
	step, err := s.Peek(txn, inv)
	if err != nil {
		return "", err
	}
	if err := s.Apply(txn, step); err != nil {
		return "", err
	}
	return step.Res, nil
}
