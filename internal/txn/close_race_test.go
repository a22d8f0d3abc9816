package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
)

// TestEngineCloseIsIdempotentAndTyped: Engine.Close is safe to call twice,
// and a commit arriving after Close observes a typed wal.ErrClosed-wrapped
// failure — with its locks released and the transaction terminated — not
// an unspecified race outcome.
func TestEngineCloseIsIdempotentAndTyped(t *testing.T) {
	log, err := wal.Open(wal.Config{Backend: waltest.NewLatencyBackend(0)})
	if err != nil {
		t.Fatal(err)
	}
	ba := adt.DefaultBankAccount()
	e := NewEngine(Options{WAL: log})
	e.MustRegister("X", ba, ba.NRBC(), UndoLogRecovery)

	// A transaction that is mid-flight when the engine closes.
	tx := e.Begin()
	if _, err := tx.Invoke("X", adt.Deposit(3)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v (must be idempotent)", err)
	}
	err = tx.Commit()
	if !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Commit after Close = %v, want a wal.ErrClosed-wrapped error", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Abort after failed Commit = %v, want ErrNotActive (terminated)", err)
	}
	// The commit's locks were released: a conflicting invoke fails on the
	// closed log rather than blocking forever on a leaked lock.
	tx2 := e.Begin()
	done := make(chan error, 1)
	go func() {
		_, err := tx2.Invoke("X", adt.Deposit(1))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("Invoke on closed engine = %v, want wal.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("invoke blocked: the terminated commit leaked its locks")
	}
}

// TestEngineCloseRacesInFlightTxns drives commits and aborts concurrently
// with Engine.Close. Every operation must either succeed or fail with a
// typed error (wal.ErrClosed surfaced as ErrDurability on the commit path,
// deadlock aborts, plain abort errors) — never hang, leak a lock, or
// panic. Run with -race this is the regression
// test for the Close-vs-Commit shutdown races.
func TestEngineCloseRacesInFlightTxns(t *testing.T) {
	// The subtest names the engine's one lock-release discipline:
	// early release with dependency tracking.
	t.Run("release-early-tracked", engineCloseRacesInFlightTxns)
}

func engineCloseRacesInFlightTxns(t *testing.T) {
	for round := 0; round < 3; round++ {
		// Each sync takes 70µs, so rounds are in flight when Close lands.
		log, err := wal.Open(wal.Config{Backend: waltest.NewLatencyBackend(70 * time.Microsecond)})
		if err != nil {
			t.Fatal(err)
		}
		ba := adt.DefaultBankAccount()
		e := NewEngine(Options{WAL: log, Shards: 4})
		const objects = 4
		rel := ba.NRBC()
		for i := 0; i < objects; i++ {
			e.MustRegister(history.ObjectID(fmt.Sprintf("obj%d", i)), ba, rel, UndoLogRecovery)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 256)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					tx := e.Begin()
					_, err := tx.Invoke(history.ObjectID(fmt.Sprintf("obj%d", (w+i)%objects)), adt.Deposit(1))
					if err != nil {
						if !errors.Is(err, ErrAborted) {
							if aerr := tx.Abort(); aerr != nil && !errors.Is(aerr, ErrNotActive) {
								errs <- aerr
							}
						}
						errs <- err
						continue
					}
					if i%5 == 0 {
						if err := tx.Abort(); err != nil {
							errs <- err
						}
					} else if err := tx.Commit(); err != nil {
						errs <- err
					}
				}
			}(w)
		}
		// Close mid-flight, then again (idempotence under race).
		time.Sleep(time.Duration(200*round) * time.Microsecond)
		first := e.Close()
		second := e.Close()
		if !errors.Is(second, first) && second != first {
			t.Errorf("second Close = %v, first = %v: results must agree", second, first)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			switch {
			case errors.Is(err, wal.ErrClosed),
				errors.Is(err, ErrDurability),
				errors.Is(err, ErrAborted),
				errors.Is(err, ErrNotActive):
				// Typed shutdown/contention outcomes are expected.
			default:
				t.Errorf("untyped error during close race: %v", err)
			}
		}
	}
}
