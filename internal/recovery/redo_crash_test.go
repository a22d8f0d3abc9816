package recovery_test

// Crash harness for the REDO-only dependency-logging discipline: the
// banking and transfer crash-injection sweeps of crash_test.go and
// checkpoint_crash_test.go re-run with txn.Options.LogDiscipline set to
// wal.DisciplineRedo. The durable log now carries logical operation
// records with no undo payload plus dependency-carrying transaction-level
// commit records, and restart is the winners-only forward replay — no
// undo pass, nothing appended. The sweeps prove, at every batch boundary
// (including boundaries inside live checkpoints with truncation on):
//
//   - restart equals the independent committed-winners oracle over the
//     durable RedoRecs (losers contribute nothing without ever being
//     undone);
//   - the transfer total is conserved — no boundary recovers half a
//     transfer;
//   - restart appends nothing, so the durable log is untouched and a
//     second restart is trivially a fixed point;
//   - every winner's durable dependency set is closed under the winner
//     set (checked inside restart on untruncated logs);
//   - a mixed-discipline handoff — an undo-mode log reopened by a
//     redo-only engine or restart, and vice versa — is rejected loudly.
//
// The banking sweep restarts through recovery.RestartRedoOnly; the
// checkpointed transfer sweep through RestartAllWithConfig's dispatch on
// the reopened log's discipline marker.

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/txn"
	"repro/internal/wal"
)

// countRedoInFlight returns the number of transactions with durable
// RedoRecs but no durable TxnCommitRec — the losers whose operations the
// winners-only replay must simply never redo.
func countRedoInFlight(recs []wal.Record) int {
	winners := durableWinners(recs)
	seen := map[history.TxnID]bool{}
	n := 0
	for _, r := range recs {
		if r.Kind == wal.RedoRec && !winners[r.Txn] && !seen[r.Txn] {
			seen[r.Txn] = true
			n++
		}
	}
	return n
}

// assertRedoLogClean fails if the durable log contains any undo-discipline
// record kind — a redo-only engine must never stage per-object commit,
// compensation, or abort records, live or during abort processing.
func assertRedoLogClean(t *testing.T, recs []wal.Record) {
	t.Helper()
	for _, r := range recs {
		switch r.Kind {
		case wal.Update, wal.CommitRec, wal.CompensationRec, wal.AbortRec:
			t.Fatalf("undo-discipline %s record at LSN %d in a redo-only log", r.Kind, r.LSN)
		}
	}
}

// TestRedoCrashInjectionSweep: the banking crash sweep under the redo-only
// discipline. Per injection point: restart equals the committed-winners
// oracle over the durable RedoRecs, the log contains no undo-discipline
// records and gains none from restart, loser records are skipped rather
// than undone, and a second restart reproduces the same state from the
// byte-identical log. Restart goes through recovery.RestartRedoOnly, and
// every restarted store must be redo-only — at crash-at-batch-00, where
// nothing reached disk, that is the empty log's path.
func TestRedoCrashInjectionSweep(t *testing.T) {
	dir := t.TempDir()
	base := crashRun{walDir: filepath.Join(dir, "cal"), crashAt: -1, seed: 1, discipline: wal.DisciplineRedo}
	cal := runBankingCrash(t, base)
	calibrate(t, base, cal, 5)
	// The live history is discipline-independent: same well-formedness,
	// same abstract-model acceptance, same dynamic atomicity.
	checkCalibration(t, base, cal.e)

	losersSeen := 0
	depsSeen := 0
	sweep(t, cal.batches, 28, 28, func(t *testing.T, k int) {
		run := base.point(dir, k, int64(100+k))
		runBankingCrash(t, run)
		durable := readDurable(t, run.walDir)
		assertRedoLogClean(t, durable)
		if countRedoInFlight(durable) > 0 {
			losersSeen++
		}
		for _, r := range durable {
			if r.Kind == wal.TxnCommitRec && len(r.Deps) > 0 {
				depsSeen++
				break
			}
		}
		r, again := restartStable(t, run.walDir, "", viaRedoOnly, crashObjectIDs())
		checkOracle(t, durable, r, crashObjectIDs())
		// No undo pass, no tail: the restart leaves the durable log
		// exactly as the crash left it.
		if r.stats.Undone != 0 {
			t.Errorf("redo-only restart undid %d records without a checkpoint", r.stats.Undone)
		}
		if len(r.recs) != len(durable) || len(again.recs) != len(durable) {
			t.Errorf("restarts grew the log from %d to %d then %d records — redo-only restart must append nothing",
				len(durable), len(r.recs), len(again.recs))
		}
	})
	if losersSeen == 0 {
		t.Error("no injection point produced an in-flight loser; the sweep is not exercising loser skipping")
	}
	if depsSeen == 0 {
		t.Error("no injection point produced a dependency-carrying commit record; the sweep is not exercising Deps")
	}
	t.Logf("sweep saw %d loser boundaries, %d points with durable dependency sets", losersSeen, depsSeen)
}

// TestRedoCheckpointTransferCrashSweepTruncated: the fan-out transfer
// crash sweep with live fuzzy checkpointing and log truncation enabled,
// under the redo-only discipline — restart sees only the snapshot plus the
// retained segments, and the suffix's discipline marker (re-staged by
// every checkpoint just past the frontier) must survive truncation so the
// reopened log still declares its discipline. Conservation is the oracle;
// restart dispatches on the reopened log's discipline and must append
// nothing at every boundary.
func TestRedoCheckpointTransferCrashSweepTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := transferCrashConfig(1)
	objs := transferObjects(cfg)
	total := cfg.Accounts * cfg.InitialBalance
	base := crashRun{walDir: filepath.Join(dir, "cal"), ckptDir: filepath.Join(dir, "cal.ckpt"), truncate: true,
		segBytes: segCrashBytes, crashAt: -1, seed: 1, discipline: wal.DisciplineRedo}
	cal := runTransferCrash(t, base)
	calibrate(t, base, cal, 5)

	seeded, truncatedPoints := 0, 0
	sweep(t, cal.batches, 28, 16, func(t *testing.T, k int) {
		run := base.point(dir, k, int64(1000+k))
		runTransferCrash(t, run)
		durable := readDurable(t, run.walDir)
		assertRedoLogClean(t, durable)
		r, _ := restartStable(t, run.walDir, run.ckptDir, viaDispatch, objs)
		checkConserved(t, r, objs, total)
		if len(r.recs) != len(durable) {
			t.Errorf("restart grew the log from %d to %d records", len(durable), len(r.recs))
		}
		if r.snap == nil {
			return
		}
		seeded++
		if r.snap.Discipline != wal.DisciplineRedo {
			t.Errorf("snapshot discipline %q, want %q", r.snap.Discipline, wal.DisciplineRedo)
		}
		if truncatedBy(t, durable, r.snap) {
			truncatedPoints++
		}
	})
	if seeded == 0 {
		t.Error("no injection point restarted from a durable checkpoint")
	}
	if truncatedPoints == 0 {
		t.Error("no injection point saw a truncated durable log; the sweep is not exercising marker survival")
	}
	t.Logf("sweep: %d points checkpoint-seeded, %d with a truncated durable log", seeded, truncatedPoints)
}

// TestRedoCommitSplitDeterministic pins the protocol's defining boundary
// under the redo discipline: both legs' RedoRecs are durable but the
// dependency-carrying TxnCommitRec is not. The winners-only replay must
// skip both legs — no undo needed, because nothing was redone.
func TestRedoCommitSplitDeterministic(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "split")
	log := createLog(t, walDir, 0, nil)
	log.Append(wal.DisciplineMarker(wal.DisciplineRedo))
	src := recovery.NewRedoOnlyLog("xfer00", crashMachine(), log)
	dst := recovery.NewRedoOnlyLog("xfer01", crashMachine(), log)
	if _, err := src.Apply("T", adt.Withdraw(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Apply("T", adt.Deposit(2)); err != nil {
		t.Fatal(err)
	}
	if err := src.Commit("T"); err != nil {
		t.Fatal(err)
	}
	if err := dst.Commit("T"); err != nil {
		t.Fatal(err)
	}
	log.Flush()
	// The machine died before the TxnCommitRec was staged.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	objs := []history.ObjectID{"xfer00", "xfer01"}
	r := restartDurable(t, walDir, "", viaRedoOnly, objs, 0)
	want := strconv.Itoa(crashInitialBalance)
	for _, obj := range objs {
		if r.vals[obj] != want {
			t.Errorf("account %s: restarted state %s, want %s (the loser's legs must never be redone)",
				obj, r.vals[obj], want)
		}
	}
	if r.stats.Replayed != 0 || r.stats.Undone != 0 {
		t.Errorf("restart replayed %d and undid %d records; a pure loser log needs neither", r.stats.Replayed, r.stats.Undone)
	}
	if len(r.recs) != 3 {
		t.Errorf("restart changed the log: %d records, want 3 (marker + two redo records)", len(r.recs))
	}
}

// TestRedoDependencyClosureViolationRejected: a winner whose durable Deps
// name a transaction with no durable commit record is a torn log —
// consistent-cut batching makes it impossible for the engine to produce —
// and restart must refuse to replay it.
func TestRedoDependencyClosureViolationRejected(t *testing.T) {
	log := wal.New()
	log.Append(wal.DisciplineMarker(wal.DisciplineRedo))
	u := recovery.NewRedoOnlyLog("X", crashMachine(), log)
	if _, err := u.Apply("T2", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	if err := u.Commit("T2"); err != nil {
		t.Fatal(err)
	}
	// T2 claims to have read from T1, whose commit record never became
	// durable.
	log.Append(wal.Record{Kind: wal.TxnCommitRec, Txn: "T2", Deps: []history.TxnID{"T1"}})
	_, _, err := recovery.RestartRedoOnly([]history.ObjectID{"X"},
		func(history.ObjectID) adt.Machine { return crashMachine() }, log, nil, recovery.RestartConfig{})
	if err == nil || !strings.Contains(err.Error(), "dependency closure") {
		t.Fatalf("restart accepted a winner with an undurable dependency: %v", err)
	}
}

// TestMixedDisciplineRejected: every seam that could silently recover one
// discipline's artifacts under the other must refuse instead.
func TestMixedDisciplineRejected(t *testing.T) {
	// mkLog leaves a one-transaction log of the given discipline on disk
	// and returns it re-opened.
	mkLog := func(t *testing.T, discipline string) *wal.Log {
		t.Helper()
		dir := t.TempDir()
		e := txn.NewEngine(txn.Options{WAL: createLog(t, dir, 0, nil), LogDiscipline: discipline})
		e.MustRegister("X", adt.DefaultBankAccount(), adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
		tx := e.Begin()
		if _, err := tx.Invoke("X", adt.Deposit(5)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return reopenLog(t, dir)
	}

	t.Run("redo-engine-over-undo-log", func(t *testing.T) {
		log := mkLog(t, "")
		defer log.Close()
		e := txn.NewEngine(txn.Options{WAL: log, LogDiscipline: wal.DisciplineRedo})
		if err := e.Register("X", adt.DefaultBankAccount(), adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery); err == nil {
			t.Fatal("redo-only engine registered over an undo-mode log")
		}
	})
	t.Run("undo-engine-over-redo-log", func(t *testing.T) {
		log := mkLog(t, wal.DisciplineRedo)
		defer log.Close()
		e := txn.NewEngine(txn.Options{WAL: log})
		if err := e.Register("X", adt.DefaultBankAccount(), adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery); err == nil {
			t.Fatal("undo-logging engine registered over a redo-only log")
		}
	})
	t.Run("redo-restart-of-undo-log", func(t *testing.T) {
		log := mkLog(t, "")
		defer log.Close()
		if _, _, err := recovery.RestartRedoOnly([]history.ObjectID{"X"},
			func(history.ObjectID) adt.Machine { return crashMachine() }, log, nil,
			recovery.RestartConfig{}); err == nil {
			t.Fatal("RestartRedoOnly accepted a log with no redo marker")
		}
	})
	t.Run("undo-restart-of-redo-log", func(t *testing.T) {
		log := mkLog(t, wal.DisciplineRedo)
		defer log.Close()
		if _, err := recovery.Restart("X", crashMachine(), log); err == nil {
			t.Fatal("single-object undo restart accepted a redo-only log")
		}
	})
	t.Run("mixed-record-kinds", func(t *testing.T) {
		// A marked redo log polluted with an undo-mode Update record (and
		// the dual: an unmarked log containing a RedoRec) — torn handoffs
		// the per-kind audit catches even when the marker check passes.
		polluted := wal.New()
		polluted.Append(wal.DisciplineMarker(wal.DisciplineRedo))
		polluted.Append(wal.Record{Kind: wal.Update, Txn: "T", Obj: "X", Op: adt.DepositOk(1)})
		if _, err := recovery.RestartAll([]history.ObjectID{"X"},
			func(history.ObjectID) adt.Machine { return crashMachine() }, polluted); err == nil {
			t.Fatal("restart accepted an Update record in a redo-only log")
		}
		unmarked := wal.New()
		unmarked.Append(wal.Record{Kind: wal.RedoRec, Txn: "T", Obj: "X", Op: adt.DepositOk(1)})
		if _, err := recovery.RestartAll([]history.ObjectID{"X"},
			func(history.ObjectID) adt.Machine { return crashMachine() }, unmarked); err == nil {
			t.Fatal("restart accepted a RedoRec in a log with no discipline marker")
		}
	})
	t.Run("checkpoint-discipline-mismatch", func(t *testing.T) {
		log := wal.New()
		log.Append(wal.Record{Kind: wal.Update, Txn: "T", Obj: "X", Op: adt.DepositOk(1),
			Undo: wal.EncodedUndo("")})
		snap := &checkpoint.Snapshot{ID: "CKPT0001", Frontier: 1, Discipline: wal.DisciplineRedo}
		if _, _, err := recovery.RestartAllWithCheckpoint([]history.ObjectID{"X"},
			func(history.ObjectID) adt.Machine { return crashMachine() }, log, snap); err == nil {
			t.Fatal("restart accepted a redo-discipline checkpoint over an undo-mode log")
		}
	})
}
