package recovery

import (
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/wal"
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

// AppendDurable stages r on log and waits until it is durable, the way a
// committing transaction does. A refused record or a failed round fails
// the test.
func AppendDurable(t testing.TB, log *wal.Log, r wal.Record) {
	t.Helper()
	tk, err := log.AppendAsync(r)
	if err == nil {
		err = log.WaitDurable(tk)
	}
	if err != nil {
		t.Fatalf("append %s for %s: %v", r.Kind, r.Txn, err)
	}
}
