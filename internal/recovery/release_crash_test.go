package recovery_test

// Release-policy durability tests: the crash sweep of crash_test.go run
// under ReleaseAfterAck (locks held to the ack change the interleavings
// the flusher sees, not the oracle), plus the failed-backend experiment
// the release policies exist for — a log device that dies mid-run, after
// which no transaction may ever be cleanly acknowledged on top of state
// the durable log does not contain.

import (
	"errors"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestReleaseAfterAckCrashSweep re-runs the crash-injection sweep under
// ReleaseAfterAck: at every injected boundary the restarted state must
// match the transaction-granularity winners oracle, no loser may survive,
// and a second restart must be a fixed point — holding locks across the
// barrier must not change what the durable log means, only when it is
// observable.
func TestReleaseAfterAckCrashSweep(t *testing.T) {
	dir := t.TempDir()
	base := crashRun{walDir: filepath.Join(dir, "cal"), crashAt: -1, seed: 11, policy: txn.ReleaseAfterAck}
	cal := runBankingCrash(t, base)
	calibrate(t, base, cal, 3)
	checkCalibration(t, base, cal.e)
	sweep(t, cal.batches, 18, 12, func(t *testing.T, k int) {
		run := base.point(dir, k, int64(300+k))
		runBankingCrash(t, run)
		durable := readDurable(t, run.walDir)
		r, _ := restartStable(t, run.walDir, "", viaDispatch, crashObjectIDs())
		checkOracle(t, durable, r, crashObjectIDs())
	})
}

// failAfterBackend delegates to an inner segmented backend for the first
// okSyncs batches, then fails every later sync without writing — a log
// device that dies mid-run. The durable prefix is exactly the batches
// acknowledged before the death.
type failAfterBackend struct {
	inner   *wal.SegmentedBackend
	okSyncs int
	calls   int
	err     error
}

func (b *failAfterBackend) Sync(recs []wal.Record) error {
	b.calls++
	if b.calls > b.okSyncs {
		return b.err
	}
	return b.inner.Sync(recs)
}
func (b *failAfterBackend) Close() error { return b.inner.Close() }

// TestNoAckedCommitOnUnsyncedLoser is the acceptance experiment for the
// release policies, against a real segmented backend that dies after its
// first batch:
//
//   - T1 commits while the device lives → clean ack.
//   - T2 commits into the dead device → ErrDurability, never a clean ack.
//   - T3 reads T2's unsynced state and commits → terminated through the
//     abort path (ErrDurability+ErrAborted): no acknowledged commit ever
//     reads from an unsynced loser.
//
// The log is then re-opened and restarted: the recovered state must
// contain exactly the cleanly acknowledged transactions — what the
// application was told survives agrees with what restart reconstructs —
// under both ReleaseEarlyTracked and ReleaseAfterAck.
func TestNoAckedCommitOnUnsyncedLoser(t *testing.T) {
	for _, pol := range []txn.ReleasePolicy{txn.ReleaseEarlyTracked, txn.ReleaseAfterAck} {
		t.Run(pol.String(), func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "dying")
			inner, err := wal.CreateSegmentedBackend(walDir, wal.SegmentConfig{})
			if err != nil {
				t.Fatal(err)
			}
			devErr := errors.New("log device died")
			backend := &failAfterBackend{inner: inner, okSyncs: 1, err: devErr}
			log, err := wal.Open(wal.Config{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			ba := adt.BankAccount{InitialBalance: crashInitialBalance, MaxBalance: 1 << 20,
				Amounts: []int{1, 2, 3, 5, 7, 9}}
			e := txn.NewEngine(txn.Options{WAL: log, ReleasePolicy: pol})
			e.MustRegister("X", ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)

			// T1: committed while the device lives — cleanly acknowledged.
			t1 := e.Begin()
			if _, err := t1.Invoke("X", adt.Deposit(5)); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatalf("T1 Commit = %v, want clean ack (device alive)", err)
			}

			// T2: its batch hits the dead device.
			t2 := e.Begin()
			if _, err := t2.Invoke("X", adt.Deposit(7)); err != nil {
				t.Fatal(err)
			}
			err2 := t2.Commit()
			if !errors.Is(err2, txn.ErrDurability) || !errors.Is(err2, devErr) {
				t.Fatalf("T2 Commit = %v, want ErrDurability wrapping the device failure", err2)
			}

			// T3: reads T2's unsynced state; must be terminated, not acked.
			t3 := e.Begin()
			if _, err := t3.Invoke("X", adt.Balance()); err != nil {
				t.Fatal(err)
			}
			if _, err := t3.Invoke("X", adt.Deposit(9)); err != nil {
				t.Fatal(err)
			}
			err3 := t3.Commit()
			if !errors.Is(err3, txn.ErrDurability) || !errors.Is(err3, txn.ErrAborted) {
				t.Fatalf("T3 Commit = %v, want ErrDurability+ErrAborted (cascade to the dependent)", err3)
			}
			if got := e.Metrics.DurabilityAborts.Load(); got != 1 {
				t.Errorf("DurabilityAborts = %d, want 1", got)
			}
			if err := e.Close(); !errors.Is(err, devErr) {
				t.Fatalf("Close = %v, want the sticky device failure", err)
			}

			// Restart from the durable file: exactly the acknowledged
			// transaction survives.
			r := restartDurable(t, walDir, "", viaDispatch, []history.ObjectID{"X"}, 0)
			want := strconv.Itoa(crashInitialBalance + 5)
			if r.vals["X"] != want {
				t.Errorf("restarted state %s, want %s (exactly the cleanly acked T1)", r.vals["X"], want)
			}
			winners := durableWinners(r.recs)
			if !winners[t1.ID()] {
				t.Errorf("cleanly acked %s is not a durable winner", t1.ID())
			}
			for _, tx := range []*txn.Txn{t2, t3} {
				if winners[tx.ID()] {
					t.Errorf("%s was never cleanly acked but restarted as a winner", tx.ID())
				}
			}
			assertLosersTerminated(t, r.recs, "X")
		})
	}
}
