package recovery_test

// Transfer crash sweeps: the multi-object transfer workload (withdraw at
// one account, deposit at the others, one transaction) crashed at every
// batch boundary, once on one unbounded segment and once on tiny rotating
// segments, so crash points also land at and around rotation boundaries —
// a batch acknowledged against a just-created segment file whose dirent
// must be durable. Transaction atomicity is observable as money
// conservation, so these sweeps are the direct test of transaction-atomic
// restart: at every crash boundary — between the legs' updates, between
// per-object commit records, or between them and the transaction-level
// commit record — the recovered accounts must sum to exactly the initial
// total. Half a transfer surviving restart is the bug the presumed-abort
// protocol exists to make impossible.

import (
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/txn"
	"repro/internal/wal"
)

// transferCrashConfig pins the workload to the banking-machine parameters
// the shared restart helpers use (initial balance crashInitialBalance,
// amounts 1..3), so crashMachine() is exactly the machine that produced
// the durable log. Transfers fan out over three participants: the commit
// sweep spans three objects, so crash boundaries can separate any pair of
// legs, any pair of per-object commit records, or the last of them from
// the transaction-level commit record.
func transferCrashConfig(seed int64) transferConfig {
	cfg := defaultTransferConfig()
	cfg.InitialBalance = crashInitialBalance
	cfg.MaxAmount = 3
	cfg.TxnsPerWorker = 12
	cfg.Participants = 3
	cfg.Seed = seed
	cfg.Record = true
	return cfg
}

func transferObjects(cfg transferConfig) []history.ObjectID {
	objs := make([]history.ObjectID, cfg.Accounts)
	for i := range objs {
		objs[i] = transferAccountID(i)
	}
	return objs
}

// runTransferCrash drives the transfer workload under the harness.
func runTransferCrash(t *testing.T, run crashRun) crashResult {
	t.Helper()
	cfg := transferCrashConfig(run.seed)
	// Every barrier leads a round as soon as none holds its records, so
	// batches are small and boundaries fall inside transfers (between the
	// legs' updates and between commit processing and the
	// transaction-level commit record), which is exactly what these sweeps
	// need to crash into.
	e, finish := startCrashEngine(t, run, txn.Options{RecordHistory: cfg.Record}, cfg.Register)
	runTransfers(e, cfg)
	return finish()
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

// The transfer crash sweep, once on one unbounded segment and once on
// 512-byte segments that rotate every few batches.
func TestTransferCrashSweep(t *testing.T) { transferCrashSweep(t, 0, 28, 24) }

func TestTransferCrashSweepSegmented(t *testing.T) { transferCrashSweep(t, segCrashBytes, 24, 16) }

// transferCrashSweep crashes the log at every flush-round boundary of the
// transfer workload on segments of segBytes and proves, per
// injection point, that restart of the re-opened segments (1) recovers
// every account to the transaction-granularity oracle balance, (2)
// conserves the total — no boundary ever recovers half a transfer, (3)
// terminates every loser, and (4) is a fixed point under a second restart.
// The winner set is decided by durable TxnCommitRecs alone (presumed
// abort): a transaction with per-object CommitRecs but no
// transaction-level record contributes nothing anywhere.
func transferCrashSweep(t *testing.T, segBytes int64, span, maxPoints int) {
	dir := t.TempDir()
	cfg := transferCrashConfig(1)
	objs := transferObjects(cfg)
	total := cfg.Accounts * cfg.InitialBalance
	base := crashRun{walDir: filepath.Join(dir, "cal"), segBytes: segBytes, crashAt: -1, seed: 1}
	cal := runTransferCrash(t, base)
	calibrate(t, base, cal, 5)

	losersSeen := 0
	commitSplits := 0
	midComps := 0
	sweep(t, cal.batches, span, maxPoints, func(t *testing.T, k int) {
		run := base.point(dir, k, int64(1000+k))
		runTransferCrash(t, run)
		durable := readDurable(t, run.walDir)
		if countInFlight(durable) > 0 {
			losersSeen++
		}
		commitSplits += countCommitSplit(durable)
		midComps += countMidCompensation(durable)
		r, _ := restartStable(t, run.walDir, "", objs)
		checkOracle(t, durable, r, objs)
		checkConserved(t, r, objs, total)
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
	walDir := filepath.Join(t.TempDir(), "split")
	log := createLog(t, walDir, 0, nil)
	src := recovery.NewUndoLog("xfer00", crashMachine(), log)
	dst := recovery.NewUndoLog("xfer01", crashMachine(), log)
	if _, err := recovery.PeekApply(src, "T", adt.Withdraw(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := recovery.PeekApply(dst, "T", adt.Deposit(2)); err != nil {
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
	r, _ := restartStable(t, walDir, "", objs)
	want := strconv.Itoa(crashInitialBalance)
	for _, obj := range objs {
		if r.vals[obj] != want {
			t.Errorf("account %s: restarted state %s, want %s (presumed abort must undo the transfer)",
				obj, r.vals[obj], want)
		}
		assertLosersTerminated(t, r.recs, obj)
	}
}
