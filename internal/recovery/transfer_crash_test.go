package recovery_test

// Transfer crash sweep: the multi-object transfer workload (withdraw at
// one account, deposit at another, one transaction) runs on a file-backed
// asynchronous WAL crashed at every batch boundary. Transaction atomicity
// is observable as money conservation, so this sweep is the direct test of
// transaction-atomic restart: at every crash boundary — between the two
// legs' updates, between per-object commit records, or between them and
// the transaction-level commit record — the recovered accounts must sum to
// exactly the initial total. Half a transfer surviving restart is the bug
// the presumed-abort protocol exists to make impossible.

import (
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/wal"
)

// transferCrashConfig pins the workload to the banking-machine parameters
// the shared restart helpers use (initial balance crashInitialBalance,
// amounts 1..3), so crashMachine() is exactly the machine that produced
// the durable log. Transfers fan out over three participants: the commit
// sweep spans three objects, so crash boundaries can separate any pair of
// legs, any pair of per-object commit records, or the last of them from
// the transaction-level commit record.
func transferCrashConfig(seed int64) sim.TransferConfig {
	cfg := sim.DefaultTransferConfig()
	cfg.InitialBalance = crashInitialBalance
	cfg.MaxAmount = 3
	cfg.TxnsPerWorker = 12
	cfg.Participants = 3
	cfg.Seed = seed
	cfg.Record = true
	return cfg
}

func transferObjects(cfg sim.TransferConfig) []history.ObjectID {
	objs := make([]history.ObjectID, cfg.Accounts)
	for i := range objs {
		objs[i] = sim.TransferAccountID(i)
	}
	return objs
}

// runTransferCrashWorkload drives the transfer workload against a
// file-backed async WAL that stops persisting at batch crashAt
// (crashAt < 0 = never crash), returning the number of batch boundaries.
func runTransferCrashWorkload(t *testing.T, path string, crashAt int, seed int64) int {
	t.Helper()
	cfg := transferCrashConfig(seed)
	backend, err := wal.CreateFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	var cp wal.CrashPoint
	if crashAt >= 0 {
		cp = func(batch int, _ []wal.Record) bool { return batch >= crashAt }
	}
	// Zero dwell: the flusher sequences eagerly, so batches are small and
	// boundaries fall inside transfers (between the two legs' updates and
	// between commit processing and the transaction-level commit record),
	// which is exactly what this sweep needs to crash into.
	log, err := wal.Open(wal.Config{
		Async:      true,
		Backend:    backend,
		CrashPoint: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewTransferEngine(cfg, log)
	sim.RunTransfers(e, cfg)
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	if err := history.WellFormed(e.History()); err != nil {
		t.Fatalf("live history malformed: %v", err)
	}
	return int(e.WAL().Flushes())
}

// countMidCompensation returns the number of (transaction, object) pairs
// whose durable prefix contains a compensation record but no abort record
// — the crash fell during an Abort's compensation flush.
func countMidCompensation(recs []wal.Record) int {
	type key struct {
		t history.TxnID
		o history.ObjectID
	}
	compensated := map[key]bool{}
	aborted := map[key]bool{}
	for _, r := range recs {
		switch r.Kind {
		case wal.CompensationRec:
			compensated[key{r.Txn, r.Obj}] = true
		case wal.AbortRec:
			aborted[key{r.Txn, r.Obj}] = true
		}
	}
	n := 0
	for k := range compensated {
		if !aborted[k] {
			n++
		}
	}
	return n
}

// TestTransferCrashSweep crashes the flusher at every staged/flushed
// boundary of the transfer workload and proves, per injection point, that
// restart on the re-opened file (1) recovers every account to the
// transaction-granularity oracle balance, (2) conserves the total — no
// boundary ever recovers half a transfer, (3) terminates every loser, and
// (4) is a fixed point under a second restart. The winner set is decided
// by durable TxnCommitRecs alone (presumed abort): a transaction with
// per-object CommitRecs but no transaction-level record contributes
// nothing anywhere.
func TestTransferCrashSweep(t *testing.T) {
	dir := t.TempDir()
	cfg := transferCrashConfig(1)
	objs := transferObjects(cfg)
	total := cfg.Accounts * cfg.InitialBalance

	calPath := filepath.Join(dir, "cal.wal")
	batches := runTransferCrashWorkload(t, calPath, -1, 1)
	if batches < 5 {
		t.Fatalf("workload produced only %d batches; sweep needs more boundaries", batches)
	}

	losersSeen := 0
	commitSplits := 0
	midComps := 0
	sweep(t, batches, 28, 24, func(t *testing.T, k int) {
		path := filepath.Join(dir, fmt.Sprintf("crash%02d.wal", k))
		runTransferCrashWorkload(t, path, k, int64(1000+k))
		durable, err := wal.ReadFileLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if countInFlight(durable) > 0 {
			losersSeen++
		}
		commitSplits += countCommitSplit(durable)
		midComps += countMidCompensation(durable)

		vals, recs := restartAllOf(t, path, k, objs)
		sum := 0
		for _, obj := range objs {
			want := strconv.Itoa(expectedBalance(durable, obj, cfg.InitialBalance))
			if vals[obj] != want {
				t.Errorf("account %s: restarted state %s, oracle %s (durable prefix %d records)",
					obj, vals[obj], want, len(durable))
			}
			bal, err := strconv.Atoi(vals[obj])
			if err != nil {
				t.Fatalf("account %s: unparsable state %q", obj, vals[obj])
			}
			sum += bal
			assertLosersTerminated(t, recs, obj, k)
		}
		if sum != total {
			t.Errorf("crash point %d: recovered total %d, want %d — restart observed half a transfer",
				k, sum, total)
		}
		again, _ := restartAllOf(t, path, k, objs)
		for obj, v := range vals {
			if again[obj] != v {
				t.Errorf("account %s: second restart diverged: %s vs %s", obj, again[obj], v)
			}
		}
	})
	if losersSeen == 0 {
		t.Error("no injection point produced an in-flight loser; the sweep is not crashing inside transfers")
	}
	t.Logf("sweep saw %d loser boundaries, %d commit-split transactions, %d mid-compensation pairs",
		losersSeen, commitSplits, midComps)
}

// TestTransferCommitSplitDeterministic pins the exact boundary the
// presumed-abort protocol exists for, without relying on the sweep's
// scheduling luck: the durable log ends after BOTH per-object commit
// records of a transfer but before its transaction-level commit record.
// Restart must treat the transfer as a loser at both accounts.
func TestTransferCommitSplitDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "split.wal")
	backend, err := wal.CreateFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	src := recovery.NewUndoLog("xfer00", crashMachine(), log)
	dst := recovery.NewUndoLog("xfer01", crashMachine(), log)
	if _, err := src.Apply("T", adt.Withdraw(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Apply("T", adt.Deposit(2)); err != nil {
		t.Fatal(err)
	}
	// The per-object commit sweep completed at both participants...
	if err := src.Commit("T"); err != nil {
		t.Fatal(err)
	}
	if err := dst.Commit("T"); err != nil {
		t.Fatal(err)
	}
	log.Flush()
	// ...and the machine died before the TxnCommitRec was staged.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	objs := []history.ObjectID{"xfer00", "xfer01"}
	vals, recs := restartAllOf(t, path, 0, objs)
	want := strconv.Itoa(crashInitialBalance)
	for _, obj := range objs {
		if vals[obj] != want {
			t.Errorf("account %s: restarted state %s, want %s (presumed abort must undo the transfer)",
				obj, vals[obj], want)
		}
		assertLosersTerminated(t, recs, obj, 0)
	}
	again, _ := restartAllOf(t, path, 0, objs)
	for obj, v := range vals {
		if again[obj] != v {
			t.Errorf("account %s: second restart diverged: %s vs %s", obj, again[obj], v)
		}
	}
}
