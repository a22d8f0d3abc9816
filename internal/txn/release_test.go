package txn

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/wal"
)

// newReleaseEngine builds a one-account engine over a WAL with the given
// backend.
func newReleaseEngine(t *testing.T, b wal.Backend) *Engine {
	t.Helper()
	log, err := wal.Open(wal.Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	ba := adt.DefaultBankAccount()
	e := NewEngine(Options{WAL: log})
	e.MustRegister("X", ba, ba.NRBC(), UndoLogRecovery)
	return e
}

// TestDependentOnUnsyncedLoser is the early-lock-release durability hole,
// end to end. A first transaction commits but its WAL batch never syncs
// (ErrDurability: committed in memory, durable log empty). A second
// transaction then reads that state and commits.
//
// Without dependency tracking the dependent would be left committed in
// memory on top of the unsynced loser, and after a restart neither
// transaction would exist even though the engine kept serving both
// transactions' effects. The commit's dependency gate prevents it: the
// dependent is terminated through the abort path — its effects are undone,
// the error wraps ErrDurability and ErrAborted, and the in-memory state
// stops accumulating commits the log can never contain.
func TestDependentOnUnsyncedLoser(t *testing.T) {
	// The subtest names the engine's one lock-release discipline:
	// early release with dependency tracking.
	t.Run("release-early-tracked", dependentOnUnsyncedLoser)
}

func dependentOnUnsyncedLoser(t *testing.T) {
	devErr := errors.New("log device gone")
	e := newReleaseEngine(t, &failingBackend{err: devErr})

	// T1 commits; the backend refuses the batch. T1 is committed in memory
	// with the durable log behind — the unsynced loser.
	t1 := e.Begin()
	if _, err := t1.Invoke("X", adt.Deposit(3)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); !errors.Is(err, ErrDurability) {
		t.Fatalf("T1 Commit = %v, want ErrDurability", err)
	}
	if lsn := e.WAL().DurableLSN(); lsn != 0 {
		t.Fatalf("durable LSN = %d, want 0 (nothing synced)", lsn)
	}

	// T2 reads T1's unsynced state and commits on top of it.
	t2 := e.Begin()
	if res, err := t2.Invoke("X", adt.Balance()); err != nil || res != "3" {
		t.Fatalf("T2 read = %q (%v), want 3 (T1's in-memory state)", res, err)
	}
	if _, err := t2.Invoke("X", adt.Deposit(4)); err != nil {
		t.Fatal(err)
	}
	err := t2.Commit()
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("T2 Commit = %v, want ErrDurability (never a clean ack)", err)
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("T2 Commit = %v, want ErrAborted (terminated via the abort path)", err)
	}

	t3 := e.Begin()
	res, err := t3.Invoke("X", adt.Balance())
	if err != nil {
		t.Fatal(err)
	}
	if res != "3" {
		t.Fatalf("balance = %q, want 3: the dependent's effects must be undone", res)
	}
	if got := e.Metrics.DurabilityAborts.Load(); got != 1 {
		t.Errorf("DurabilityAborts = %d, want 1", got)
	}
	if got := e.Metrics.DependencyStalls.Load(); got != 1 {
		t.Errorf("DependencyStalls = %d, want 1 (T2's read-from set was not durable)", got)
	}
	if got := e.Metrics.Commits.Load(); got != 0 {
		t.Errorf("Commits = %d, want 0 under a dead backend", got)
	}
}

// gatedBackend blocks every Sync until the gate is released — a log device
// whose acknowledgement the test controls.
type gatedBackend struct {
	gate  chan struct{}
	syncs atomic.Int64
}

func newGatedBackend() *gatedBackend { return &gatedBackend{gate: make(chan struct{})} }

func (b *gatedBackend) Write([]wal.Record, []byte) error { return nil }

func (b *gatedBackend) Sync() error {
	<-b.gate
	b.syncs.Add(1)
	return nil
}
func (b *gatedBackend) Close() error { return nil }

// TestEarlyReleaseStallsDependentBehindBarrier pins the concurrency
// semantics of early lock release with a backend whose acknowledgement the
// test controls: a conflicting reader proceeds while the committer's
// barrier is held inside the round it leads, its own commit then stalls behind the inherited
// dependency ticket, and that commit completes once the batch is
// acknowledged.
func TestEarlyReleaseStallsDependentBehindBarrier(t *testing.T) {
	b := newGatedBackend()
	e := newReleaseEngine(t, b)

	t1 := e.Begin()
	if _, err := t1.Invoke("X", adt.Deposit(3)); err != nil {
		t.Fatal(err)
	}
	commitDone := make(chan error, 1)
	go func() { commitDone <- t1.Commit() }()

	// A conflicting read: balance observes deposits, so under NRBC it must
	// wait for T1's locks — which T1 releases before its barrier.
	t2 := e.Begin()
	readDone := make(chan string, 1)
	go func() {
		res, err := t2.Invoke("X", adt.Balance())
		if err != nil {
			readDone <- "error: " + err.Error()
			return
		}
		readDone <- string(res)
	}()
	select {
	case res := <-readDone:
		if res != "3" {
			t.Fatalf("reader = %q, want 3", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader still blocked while the commit barrier was gated")
	}
	select {
	case err := <-commitDone:
		t.Fatalf("Commit = %v before the backend acknowledged", err)
	default:
	}

	// The reader inherited T1's commit ticket; committing now — before the
	// gate opens — must count a dependency stall.
	depDone := make(chan error, 1)
	go func() { depDone <- t2.Commit() }()
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics.DependencyStalls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dependent commit never recorded its dependency stall")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(b.gate)
	if err := <-depDone; err != nil {
		t.Fatalf("dependent Commit after ack = %v", err)
	}
	if err := <-commitDone; err != nil {
		t.Fatalf("T1 Commit = %v", err)
	}
	if got := e.Metrics.Commits.Load(); got != 2 {
		t.Errorf("Commits = %d, want 2", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
