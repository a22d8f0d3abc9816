package txn

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// TestCommitPrepareFailureReleasesLocks: a Commit that fails mid-protocol
// (here: a touched participant that is no longer registered, failing the
// prepare phase) must still release every lock the transaction holds and
// clear its wait edges — the regression for the leak where an error return
// left the transaction state committed with locks held forever. Since
// nothing committed yet, the failure now terminates through the abort
// path: the deposit is undone, not left applied-but-untracked.
func TestCommitPrepareFailureReleasesLocks(t *testing.T) {
	e := newBankEngine(UndoLogRecovery)
	tx := e.Begin()
	if _, err := tx.Invoke(acct, adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	// Sabotage the participant set: an object that was never registered,
	// so the prepare sweep fails after the deposit's lock is held.
	tx.order = append(tx.order, "ghost")
	err := tx.Commit()
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("Commit = %v, want prepare failure naming the ghost object", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Abort after failed Commit = %v, want ErrNotActive (already terminated)", err)
	}
	// The deposit's lock must be gone: a conflicting withdrawal by another
	// transaction completes instead of waiting on the leaked lock.
	tx2 := e.Begin()
	done := make(chan error, 1)
	go func() {
		_, err := tx2.Invoke(acct, adt.Balance())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("conflicting read after failed commit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("conflicting read still blocked: failed Commit leaked its locks")
	}
	// The failed commit terminated via abort: its deposit was undone.
	res, err := tx2.Invoke(acct, adt.Balance())
	if err != nil {
		t.Fatal(err)
	}
	if res != "0" {
		t.Fatalf("balance after terminated commit = %q, want 0 (deposit undone)", res)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// failingStore wraps a recovery.Store and fails Commit for one transaction
// — the sabotaged participant of the mid-sweep termination test.
type failingStore struct {
	recovery.Store
	victim     history.TxnID
	failCommit error
}

func (s *failingStore) Commit(txn history.TxnID) error {
	if txn == s.victim {
		return s.failCommit
	}
	return s.Store.Commit(txn)
}

// TestCommitMidSweepFailureTerminates: a store.Commit error in phase 2a
// after earlier participants already committed must not abandon the
// transaction half-committed with its remaining effects visible, its undo
// chains leaked, and no terminal history event. The engine terminates it:
// already-committed participants keep their effects (and their terminal
// Commit event), the failed and remaining participants are aborted (their
// effects undone, terminal Abort events recorded), all locks are released,
// and no transaction-level commit record is staged — at restart the
// transaction is a loser everywhere.
func TestCommitMidSweepFailureTerminates(t *testing.T) {
	ba := adt.DefaultBankAccount()
	e := NewEngine(Options{RecordHistory: true, WAL: backedWAL(t)})
	e.MustRegister("A", ba, ba.NRBC(), UndoLogRecovery)
	e.MustRegister("B", ba, ba.NRBC(), UndoLogRecovery)

	tx := e.Begin()
	if _, err := tx.Invoke("A", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Invoke("B", adt.Deposit(7)); err != nil {
		t.Fatal(err)
	}
	// Sabotage B: its commit processing fails after A already committed
	// (the sweep visits participants in sorted order).
	sabotage := errors.New("participant store failed at commit")
	moB, ok := e.lookup("B")
	if !ok {
		t.Fatal("B not registered")
	}
	moB.store = &failingStore{Store: moB.store, victim: tx.id, failCommit: sabotage}

	err := tx.Commit()
	if !errors.Is(err, sabotage) {
		t.Fatalf("Commit = %v, want the sabotaged participant's failure", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Abort after mid-sweep failure = %v, want ErrNotActive (already terminated)", err)
	}

	// A committed (effects permanent), B aborted (effects undone), and
	// both are unlocked for the next transaction.
	tx2 := e.Begin()
	for obj, want := range map[history.ObjectID]string{"A": "5", "B": "0"} {
		res, err := tx2.Invoke(obj, adt.Balance())
		if err != nil {
			t.Fatalf("read %s after torn commit: %v", obj, err)
		}
		if string(res) != want {
			t.Fatalf("balance of %s after torn commit = %q, want %q", obj, res, want)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Terminal history events: Commit at A, Abort at B — no object left
	// with the transaction's operations unterminated.
	terminal := map[history.ObjectID]history.EventKind{}
	for _, ev := range e.History() {
		if ev.Txn != tx.id {
			continue
		}
		if ev.Kind == history.Commit || ev.Kind == history.Abort {
			terminal[ev.Obj] = ev.Kind
		}
	}
	if terminal["A"] != history.Commit {
		t.Errorf("terminal event at A = %v, want Commit", terminal["A"])
	}
	if terminal["B"] != history.Abort {
		t.Errorf("terminal event at B = %v, want Abort", terminal["B"])
	}

	// No transaction-level commit record: restart must see a loser.
	for _, rec := range walRecords(t, e.WAL()) {
		if rec.Kind == wal.TxnCommitRec && rec.Txn == tx.id {
			t.Error("torn commit staged a TxnCommitRec; restart would redo it as a winner")
		}
	}
}
