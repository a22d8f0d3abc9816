package txn

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/adt"
	"repro/internal/wal"
)

// failingBackend refuses every sync — a dead log device.
type failingBackend struct{ err error }

func (b *failingBackend) Write([]wal.Record, []byte) error { return nil }
func (b *failingBackend) Sync() error                      { return b.err }
func (b *failingBackend) Close() error                     { return nil }

// TestCommitSurfacesBackendFailure: when the WAL backend cannot persist
// the group-commit batch, Commit must return an error rather than ack a
// commit that never became durable. The error wraps
// ErrDurability (the commit took effect in memory; the durable log is
// behind) and is booked in Metrics.DurabilityFailures, not Commits, so
// the success counter never double-books an errored call. A *dependent*
// transaction that read the unsynced state is terminated through the
// abort path instead (ErrDurability+ErrAborted, booked in
// Metrics.DurabilityAborts) — the dependency-tracking cascade.
func TestCommitSurfacesBackendFailure(t *testing.T) {
	devErr := errors.New("log device gone")
	// The subtest names the one flush mode: barriers lead every round.
	t.Run("sync", func(t *testing.T) {
		log, err := wal.Open(wal.Config{Backend: &failingBackend{err: devErr}})
		if err != nil {
			t.Fatal(err)
		}
		ba := adt.DefaultBankAccount()
		e := NewEngine(Options{WAL: log})
		e.MustRegister("X", ba, ba.NRBC(), UndoLogRecovery)
		tx := e.Begin()
		if _, err := tx.Invoke("X", adt.Deposit(3)); err != nil {
			t.Fatal(err)
		}
		err = tx.Commit()
		if !errors.Is(err, devErr) {
			t.Fatalf("Commit = %v, want the backend failure surfaced", err)
		}
		if !errors.Is(err, ErrDurability) {
			t.Fatalf("Commit = %v, want ErrDurability (committed in memory, log behind)", err)
		}
		// The in-memory engine remains consistent: effects applied,
		// locks released, a new transaction can read the state.
		tx2 := e.Begin()
		res, err := tx2.Invoke("X", adt.Balance())
		if err != nil {
			t.Fatal(err)
		}
		if res != "3" {
			t.Fatalf("balance after failed-durability commit = %q, want 3", res)
		}
		// tx2 read from tx1, whose commit the backend never persisted:
		// its commit must cascade into an in-memory abort, not pile a
		// second unsyncable commit on top of the first.
		err = tx2.Commit()
		if !errors.Is(err, devErr) || !errors.Is(err, ErrDurability) {
			t.Fatalf("dependent Commit = %v, want the sticky backend failure as ErrDurability", err)
		}
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("dependent Commit = %v, want ErrAborted (terminated via the abort path)", err)
		}
		if got := e.Metrics.DurabilityFailures.Load(); got != 1 {
			t.Errorf("DurabilityFailures = %d, want 1 (only the original failure)", got)
		}
		if got := e.Metrics.DurabilityAborts.Load(); got != 1 {
			t.Errorf("DurabilityAborts = %d, want 1 (the cascaded dependent)", got)
		}
		if got := e.Metrics.Commits.Load(); got != 0 {
			t.Errorf("Commits = %d, want 0 (durability failures must not double-book)", got)
		}
		if err := e.Close(); !errors.Is(err, devErr) {
			t.Fatalf("Close = %v, want the backend failure", err)
		}
	})
}

// TestAbortSurfacesBackendFailure: the compensation-record flush of Abort
// is held to the same standard as Commit's barrier — a backend failure
// surfaces as ErrDurability and books a durability failure, not an abort.
func TestAbortSurfacesBackendFailure(t *testing.T) {
	devErr := errors.New("log device gone")
	log, err := wal.Open(wal.Config{Backend: &failingBackend{err: devErr}})
	if err != nil {
		t.Fatal(err)
	}
	ba := adt.DefaultBankAccount()
	e := NewEngine(Options{WAL: log})
	e.MustRegister("X", ba, ba.NRBC(), UndoLogRecovery)
	tx := e.Begin()
	if _, err := tx.Invoke("X", adt.Deposit(3)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); !errors.Is(err, devErr) || !errors.Is(err, ErrDurability) {
		t.Fatalf("Abort = %v, want the backend failure as ErrDurability", err)
	}
	if got := e.Metrics.Aborts.Load(); got != 0 {
		t.Errorf("Aborts = %d, want 0 (durability failures must not double-book)", got)
	}
	if got := e.Metrics.DurabilityFailures.Load(); got != 1 {
		t.Errorf("DurabilityFailures = %d, want 1", got)
	}
	// The in-memory undo completed: the balance is back to zero.
	tx2 := e.Begin()
	res, err := tx2.Invoke("X", adt.Balance())
	if err != nil || res != "0" {
		t.Fatalf("balance after failed-durability abort = %q (%v), want 0", res, err)
	}
}

// TestDurableEngineStartsNoGoroutine: a durable engine runs every flush
// round on the goroutine of the barrier that leads it, so building one and
// committing through it leaves the goroutine count where it was.
func TestDurableEngineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	e, err := NewDurableEngine(Options{}, DurabilityOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ba := adt.DefaultBankAccount()
	e.MustRegister("X", ba, ba.NRBC(), UndoLogRecovery)
	tx := e.Begin()
	if _, err := tx.Invoke("X", adt.Deposit(3)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.WAL().DurableLSN() == 0 {
		t.Fatal("the commit ran no flush round")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d after NewDurableEngine and a commit, want no new one", before, after)
	}
}
