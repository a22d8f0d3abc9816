package txn

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/locking"
)

// Deadlock victim policy: a waits-for cycle aborts its youngest member (the
// latest Begin), whether the cycle is closed by the youngest's own request
// or by an older requester while the youngest sleeps. Both tests build the
// same two-object cycle — older holds X, younger holds Y, each then wants
// the other's object — and differ only in who closes it. The waiter is
// known to be parked by polling the detector, never by sleeping.

// deadlockEngine registers two KV objects under the recovery kind's
// relation and begins the older and the younger transaction, each holding
// one object.
func deadlockEngine(t *testing.T, kind RecoveryKind) (e *Engine, older, younger *Txn) {
	t.Helper()
	kv := adt.DefaultKVStore()
	rel := kv.NRBC()
	if kind == IntentionsRecovery {
		rel = kv.NFC()
	}
	e = NewEngine(Options{RecordHistory: true})
	e.MustRegister("X", kv, rel, kind)
	e.MustRegister("Y", kv, rel, kind)
	older, younger = e.Begin(), e.Begin()
	if _, err := older.Invoke("X", adt.Put("x", "0")); err != nil {
		t.Fatal(err)
	}
	if _, err := younger.Invoke("Y", adt.Put("x", "1")); err != nil {
		t.Fatal(err)
	}
	return e, older, younger
}

// waitForWaiters spins until n transactions have declared a wait in the
// engine's deadlock detector.
func waitForWaiters(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.detector.WaitCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parked waiter(s)", n)
		}
		runtime.Gosched()
	}
}

// checkVictim asserts err is the deadlock abort of victim.
func checkVictim(t *testing.T, err error, victim history.TxnID) {
	t.Helper()
	var dl *locking.ErrDeadlock
	if !errors.As(err, &dl) || !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want a deadlock abort wrapping ErrAborted", err)
	}
	if dl.Victim != victim {
		t.Fatalf("victim %s, want the youngest, %s", dl.Victim, victim)
	}
}

// checkSurvivor commits the survivor and checks the engine's books: one
// deadlock, one abort, one commit, and a well-formed history.
func checkSurvivor(t *testing.T, e *Engine, survivor *Txn) {
	t.Helper()
	if err := survivor.Commit(); err != nil {
		t.Fatalf("survivor commit: %v", err)
	}
	if d, a, c := e.Metrics.Deadlocks.Load(), e.Metrics.Aborts.Load(), e.Metrics.Commits.Load(); d != 1 || a != 1 || c != 1 {
		t.Fatalf("deadlocks/aborts/commits = %d/%d/%d, want 1/1/1", d, a, c)
	}
	if n := e.detector.WaitCount(); n != 0 {
		t.Fatalf("%d waits-for entries left behind", n)
	}
	if err := history.WellFormed(e.History()); err != nil {
		t.Fatalf("history not well-formed: %v", err)
	}
}

// TestDeadlockOlderRequesterWoundsYoungerWaiter: the younger transaction
// sleeps on X when the older one's request for Y closes the cycle. The
// older requester keeps waiting; the younger is wounded, woken, and aborts
// itself, which frees Y for the older one.
func TestDeadlockOlderRequesterWoundsYoungerWaiter(t *testing.T) {
	for _, kind := range []RecoveryKind{UndoLogRecovery, IntentionsRecovery} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			e, older, younger := deadlockEngine(t, kind)
			done := make(chan error, 1)
			go func() {
				_, err := younger.Invoke("X", adt.Put("x", "1"))
				done <- err
			}()
			waitForWaiters(t, e, 1)
			if _, err := older.Invoke("Y", adt.Put("x", "0")); err != nil {
				t.Fatalf("the older requester was victimized: %v", err)
			}
			checkVictim(t, <-done, younger.ID())
			checkSurvivor(t, e, older)
		})
	}
}

// TestDeadlockYoungerRequesterDies: the older transaction sleeps on Y when
// the younger one's request for X closes the cycle. The younger requester
// is the victim and aborts at once; the older one's wait is then granted.
func TestDeadlockYoungerRequesterDies(t *testing.T) {
	for _, kind := range []RecoveryKind{UndoLogRecovery, IntentionsRecovery} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			e, older, younger := deadlockEngine(t, kind)
			done := make(chan error, 1)
			go func() {
				_, err := older.Invoke("Y", adt.Put("x", "0"))
				done <- err
			}()
			waitForWaiters(t, e, 1)
			_, err := younger.Invoke("X", adt.Put("x", "1"))
			checkVictim(t, err, younger.ID())
			if err := <-done; err != nil {
				t.Fatalf("the older waiter was victimized: %v", err)
			}
			checkSurvivor(t, e, older)
		})
	}
}
