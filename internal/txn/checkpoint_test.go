package txn_test

// Engine-level fuzzy-checkpoint tests: checkpoints taken while concurrent
// transactions run (the fuzzy part), snapshot shape (frontier below every
// marker, captured objects covered), log truncation accounting, and
// failure modes (no store, closed engine). The engine's log has a
// zero-latency backend: a log without one retains nothing to checkpoint.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
)

func ckptObjID(i int) history.ObjectID {
	return history.ObjectID(fmt.Sprintf("ck%02d", i))
}

func newCkptEngine(t *testing.T, store checkpoint.Store, objects int) *txn.Engine {
	t.Helper()
	// A 50µs sync keeps rounds in flight while checkpoints capture.
	log, err := wal.Open(wal.Config{Backend: waltest.NewLatencyBackend(50 * time.Microsecond)})
	if err != nil {
		t.Fatal(err)
	}
	e := txn.NewEngine(txn.Options{
		RecordHistory: true,
		WAL:           log,
		Checkpoint:    &txn.CheckpointOptions{Store: store},
	})
	ba := adt.BankAccount{InitialBalance: 100, MaxBalance: 1 << 20, Amounts: []int{1, 2, 3}}
	rel := adt.DefaultBankAccount().NRBC()
	for i := 0; i < objects; i++ {
		e.MustRegister(ckptObjID(i), ba, rel, txn.UndoLogRecovery)
	}
	return e
}

func runCkptWorkers(e *txn.Engine, workers, txns, objects int, seed int64) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			for i := 0; i < txns; i++ {
				tx := e.Begin()
				ok := true
				for op := 0; op < 3; op++ {
					obj := ckptObjID(rng.Intn(objects))
					var err error
					if rng.Intn(2) == 0 {
						_, err = tx.Invoke(obj, adt.Deposit(1+rng.Intn(3)))
					} else {
						_, err = tx.Invoke(obj, adt.Withdraw(1+rng.Intn(3)))
					}
					if err != nil {
						if !errors.Is(err, txn.ErrAborted) {
							_ = tx.Abort()
						}
						ok = false
						break
					}
					runtime.Gosched()
				}
				if !ok {
					continue
				}
				if rng.Intn(4) == 0 {
					_ = tx.Abort()
				} else {
					_ = tx.Commit()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCheckpointFuzzySnapshotShape takes manual checkpoints in the middle
// of a concurrent workload and checks the snapshot invariants: every
// undo-log object captured, the frontier (begin marker) below every
// per-object marker, the durable watermark at completion covering the last
// marker, truncation reclaiming exactly the pre-frontier prefix, and the
// engine still verifying and committing afterwards.
func TestCheckpointFuzzySnapshotShape(t *testing.T) {
	const objects = 6
	store, err := checkpoint.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := newCkptEngine(t, store, objects)
	defer e.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runCkptWorkers(e, 4, 30, objects, 7)
	}()
	var snap *checkpoint.Snapshot
	for i := 0; i < 3; i++ {
		snap, err = e.Checkpoint()
		if err != nil {
			t.Errorf("checkpoint %d: %v", i, err)
		}
		runtime.Gosched()
	}
	wg.Wait()
	if err != nil || snap == nil {
		t.Fatalf("no snapshot: %v", err)
	}
	if got := e.Metrics.Checkpoints.Load(); got != 3 {
		t.Fatalf("Metrics.Checkpoints = %d, want 3", got)
	}
	if len(snap.Objects) != objects {
		t.Fatalf("snapshot covers %d objects, want %d", len(snap.Objects), objects)
	}
	for _, os := range snap.Objects {
		if os.MarkerLSN <= snap.Frontier {
			t.Errorf("object %s marker %d not past frontier %d", os.Obj, os.MarkerLSN, snap.Frontier)
		}
		if snap.DurableLSN < os.MarkerLSN {
			t.Errorf("object %s marker %d past completion watermark %d", os.Obj, os.MarkerLSN, snap.DurableLSN)
		}
	}
	latest, err := store.Latest()
	if err != nil || latest == nil || latest.ID != snap.ID {
		t.Fatalf("store Latest = %+v, %v; want %s", latest, err, snap.ID)
	}
	// Truncation reclaimed the prefix: the log's base advanced to the last
	// checkpoint's frontier.
	if got := e.WAL().Base(); got != snap.Frontier-1 {
		t.Fatalf("log base = %d, want frontier-1 = %d", got, snap.Frontier-1)
	}
	if got := e.Metrics.TruncatedRecords.Load(); got != int64(snap.Frontier-1) {
		t.Fatalf("Metrics.TruncatedRecords = %d, want %d", got, int64(snap.Frontier-1))
	}
	// The engine keeps working after checkpoints + truncation.
	tx := e.Begin()
	if _, err := tx.Invoke(ckptObjID(0), adt.Deposit(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := history.WellFormed(e.History()); err != nil {
		t.Fatalf("history malformed after checkpoints: %v", err)
	}
}

// TestCheckpointFailureModes: no configured store, and a closed engine,
// both fail loudly without side effects.
func TestCheckpointFailureModes(t *testing.T) {
	e := txn.NewEngine(txn.Options{})
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint without a store must fail")
	}

	store, err := checkpoint.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e2 := newCkptEngine(t, store, 2)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Checkpoint(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("checkpoint on closed engine: err = %v, want wal.ErrClosed", err)
	}
	if got := e2.Metrics.Checkpoints.Load(); got != 0 {
		t.Fatalf("failed checkpoints counted: %d", got)
	}
}
