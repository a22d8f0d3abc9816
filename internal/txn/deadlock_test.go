package txn

import (
	"errors"
	"fmt"
	"math"
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

// checkVictim asserts err is the deadlock abort of victim, and that it
// reads as it always has: "txn <victim>: <cause>: <ErrAborted>".
func checkVictim(t *testing.T, err error, victim history.TxnID) {
	t.Helper()
	var dl *locking.ErrDeadlock
	if !errors.As(err, &dl) || !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want a deadlock abort wrapping ErrAborted", err)
	}
	if dl.Victim != victim {
		t.Fatalf("victim %s, want the youngest, %s", dl.Victim, victim)
	}
	if got, want := err.Error(), fmt.Sprintf("txn %s: %v: %v", victim, dl, ErrAborted); got != want {
		t.Fatalf("err.Error() = %q, want %q", got, want)
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

// TestDeadlockVictimAllocs pins what a deadlock victim allocates, from the
// request that closes the cycle through its abort to the error Invoke
// returns. Most of it is the KV relation's first check of the two Puts
// (its memo is cold in a fresh engine); the rest is the cycle with its
// *locking.ErrDeadlock, the returned error, and the first use of a fresh
// engine's detector stripe and history buffer. The conflict list is
// appended into the transaction's own buffer and costs nothing. The
// older transaction is parked on Y first; at GOMAXPROCS 1 it runs again
// only after the victim's Invoke has returned, so the count is the
// victim's alone. The least count over a few trials is taken, so a stray
// preemption that lets the older transaction run early cannot fail it.
func TestDeadlockVictimAllocs(t *testing.T) {
	pinned := map[RecoveryKind]uint64{UndoLogRecovery: 36, IntentionsRecovery: 26}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	getY, getX := adt.Put("x", "0"), adt.Put("x", "1")
	for _, kind := range []RecoveryKind{UndoLogRecovery, IntentionsRecovery} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			least := uint64(math.MaxUint64)
			for trial := 0; trial < 10; trial++ {
				e, older, younger := deadlockEngine(t, kind)
				done := make(chan error, 1)
				go func() {
					_, err := older.Invoke("Y", getY)
					done <- err
				}()
				waitForWaiters(t, e, 1)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := younger.Invoke("X", getX)
				runtime.ReadMemStats(&after)
				checkVictim(t, err, younger.ID())
				if err := <-done; err != nil {
					t.Fatalf("the older waiter was victimized: %v", err)
				}
				least = min(least, after.Mallocs-before.Mallocs)
			}
			if least > pinned[kind] {
				t.Fatalf("the victim's Invoke made %d allocations, want at most %d", least, pinned[kind])
			}
		})
	}
}
