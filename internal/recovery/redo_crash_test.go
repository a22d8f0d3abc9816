package recovery_test

// Crash harness for the REDO-only dependency-logging discipline: the
// banking and transfer crash-injection sweeps of crash_test.go and
// checkpoint_crash_test.go re-run with txn.Options.LogDiscipline set to
// wal.DisciplineRedo. The durable log now carries logical operation
// records with no undo payload plus dependency-carrying transaction-level
// commit records, and restart is the winners-only forward replay of
// recovery.RestartRedoOnly — no undo pass, nothing appended. The sweeps
// prove, at every batch boundary (including boundaries inside live
// checkpoints with truncation on):
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

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/wal"
)

// runRedoBankingWorkload is the banking crash workload of crash_test.go
// under the redo-only discipline: same clients, same mix of commits and
// voluntary aborts, a file-backed async WAL crashed from batch crashAt
// onward (negative = never).
func runRedoBankingWorkload(t *testing.T, path string, crashAt int, seed int64) (int, *txn.Engine) {
	t.Helper()
	backend, err := wal.CreateFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	var cp wal.CrashPoint
	if crashAt >= 0 {
		cp = func(batch int, _ []wal.Record) bool { return batch >= crashAt }
	}
	log, err := wal.Open(wal.Config{
		Async:         true,
		BatchInterval: 100 * time.Microsecond,
		Backend:       backend,
		CrashPoint:    cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	ba := adt.BankAccount{InitialBalance: crashInitialBalance, MaxBalance: 1 << 20,
		Amounts: []int{1, 2, 3}}
	rel := adt.DefaultBankAccount().NRBC()
	e := txn.NewEngine(txn.Options{RecordHistory: true, Shards: 4, WAL: log,
		LogDiscipline: wal.DisciplineRedo})
	for i := 0; i < crashObjects; i++ {
		e.MustRegister(crashObjID(i), ba, rel, txn.UndoLogRecovery)
	}
	var wg sync.WaitGroup
	for w := 0; w < crashWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*6151))
			for i := 0; i < crashTxnsPerWorker; i++ {
				tx := e.Begin()
				failed := false
				for op := 0; op < crashOpsPerTxn; op++ {
					obj := crashObjID(rng.Intn(crashObjects))
					amount := 1 + rng.Intn(3)
					var err error
					switch rng.Intn(3) {
					case 0:
						_, err = tx.Invoke(obj, adt.Deposit(amount))
					case 1:
						_, err = tx.Invoke(obj, adt.Withdraw(amount))
					default:
						_, err = tx.Invoke(obj, adt.Balance())
					}
					if err != nil {
						if !errors.Is(err, txn.ErrAborted) {
							_ = tx.Abort()
						}
						failed = true
						break
					}
					runtime.Gosched()
				}
				if failed {
					continue
				}
				if rng.Intn(5) == 0 {
					_ = tx.Abort()
				} else if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	batches := int(e.WAL().Flushes())
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	return max(batches, int(e.WAL().Flushes())), e
}

// expectedRedoBalance is the independent committed-winners oracle for a
// redo-only log: the balance implied by the durable RedoRecs of
// transactions whose TxnCommitRec survived. Structurally the twin of
// expectedBalance, reading the redo-discipline record kind.
func expectedRedoBalance(recs []wal.Record, obj history.ObjectID, initial int) int {
	winners := durableWinners(recs)
	bal := initial
	for _, r := range recs {
		if r.Obj != obj || r.Kind != wal.RedoRec || !winners[r.Txn] {
			continue
		}
		amount, _ := strconv.Atoi(r.Op.Inv.Args)
		switch {
		case r.Op.Inv.Name == "deposit":
			bal += amount
		case r.Op.Inv.Name == "withdraw" && r.Op.Res == "ok":
			bal -= amount
		}
	}
	return bal
}

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
func assertRedoLogClean(t *testing.T, recs []wal.Record, point int) {
	t.Helper()
	for _, r := range recs {
		switch r.Kind {
		case wal.Update, wal.CommitRec, wal.CompensationRec, wal.AbortRec:
			t.Fatalf("crash point %d: undo-discipline %s record at LSN %d in a redo-only log",
				point, r.Kind, r.LSN)
		}
	}
}

// restartRedoAllOf re-opens the durable log at path and restarts each
// listed object through the exported redo-only entry point.
func restartRedoAllOf(t *testing.T, path string, point int,
	objs []history.ObjectID) (map[history.ObjectID]string, []wal.Record, recovery.RestartStats) {
	t.Helper()
	backend, err := wal.OpenFileBackend(path)
	if err != nil {
		t.Fatalf("crash point %d: reopen: %v", point, err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatalf("crash point %d: replay: %v", point, err)
	}
	stores, stats, err := recovery.RestartRedoOnly(objs,
		func(history.ObjectID) adt.Machine { return crashMachine() }, log, nil, recovery.RestartConfig{})
	if err != nil {
		t.Fatalf("crash point %d: redo-only restart: %v", point, err)
	}
	vals := map[history.ObjectID]string{}
	for obj, st := range stores {
		if !st.RedoOnly() {
			t.Fatalf("crash point %d: restarted store %s is not redo-only", point, obj)
		}
		vals[obj] = st.CommittedValue().Encode()
	}
	recs := log.Snapshot()
	if err := log.Close(); err != nil {
		t.Fatalf("crash point %d: close restarted log: %v", point, err)
	}
	return vals, recs, stats
}

// TestRedoCrashInjectionSweep: the banking crash sweep under the redo-only
// discipline. Per injection point: restart equals the committed-winners
// oracle over the durable RedoRecs, the log contains no undo-discipline
// records and gains none from restart, loser records are skipped rather
// than undone, and a second restart reproduces the same state from the
// byte-identical log.
func TestRedoCrashInjectionSweep(t *testing.T) {
	dir := t.TempDir()

	calPath := filepath.Join(dir, "cal.wal")
	batches, e := runRedoBankingWorkload(t, calPath, -1, 1)
	if batches < 5 {
		t.Fatalf("workload produced only %d batches; sweep needs more boundaries", batches)
	}
	// The live history is discipline-independent: same well-formedness,
	// same abstract-model acceptance, same dynamic atomicity.
	verifyLiveHistory(t, e)
	vals, _, _ := restartRedoAllOf(t, calPath, -1, crashObjectIDs())
	for i := 0; i < crashObjects; i++ {
		obj := crashObjID(i)
		store, _ := e.Object(obj)
		if got, want := vals[obj], store.CommittedValue().Encode(); got != want {
			t.Fatalf("no-crash restart of %s: state %s, live state %s", obj, got, want)
		}
	}

	losersSeen := 0
	depsSeen := 0
	sweep(t, batches, 28, 28, func(t *testing.T, k int) {
		path := filepath.Join(dir, fmt.Sprintf("crash%02d.wal", k))
		_, e := runRedoBankingWorkload(t, path, k, int64(100+k))
		if err := history.WellFormed(e.History()); err != nil {
			t.Fatalf("live history malformed: %v", err)
		}
		durable, err := wal.ReadFileLog(path)
		if err != nil {
			t.Fatal(err)
		}
		assertRedoLogClean(t, durable, k)
		if countRedoInFlight(durable) > 0 {
			losersSeen++
		}
		for _, r := range durable {
			if r.Kind == wal.TxnCommitRec && len(r.Deps) > 0 {
				depsSeen++
				break
			}
		}
		vals, recs, stats := restartRedoAllOf(t, path, k, crashObjectIDs())
		for i := 0; i < crashObjects; i++ {
			obj := crashObjID(i)
			want := strconv.Itoa(expectedRedoBalance(durable, obj, crashInitialBalance))
			if vals[obj] != want {
				t.Errorf("object %s: restarted state %s, oracle %s (durable prefix %d records)",
					obj, vals[obj], want, len(durable))
			}
		}
		// No undo pass, no tail: the restart leaves the durable log
		// exactly as the crash left it.
		if stats.Undone != 0 {
			t.Errorf("crash point %d: redo-only restart undid %d records without a checkpoint", k, stats.Undone)
		}
		if len(recs) != len(durable) {
			t.Errorf("crash point %d: restart grew the log from %d to %d records — redo-only restart must append nothing",
				k, len(durable), len(recs))
		}
		again, recsAgain, _ := restartRedoAllOf(t, path, k, crashObjectIDs())
		for obj, v := range vals {
			if again[obj] != v {
				t.Errorf("object %s: second restart diverged: %s vs %s", obj, again[obj], v)
			}
		}
		if len(recsAgain) != len(durable) {
			t.Errorf("crash point %d: second restart grew the log", k)
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

func crashObjectIDs() []history.ObjectID {
	objs := make([]history.ObjectID, crashObjects)
	for i := range objs {
		objs[i] = crashObjID(i)
	}
	return objs
}

// TestRedoCheckpointTransferCrashSweepTruncated: the fan-out transfer
// crash sweep with live fuzzy checkpointing and log truncation enabled,
// under the redo-only discipline — restart sees only the snapshot plus the
// retained suffix, and the suffix's discipline marker (re-staged by every
// checkpoint just past the frontier) must survive truncation so the
// reopened log still declares its discipline. Conservation is the oracle;
// restart goes through RestartAllWithCheckpoint, proving the
// discipline-dispatch wiring, and must append nothing at every boundary.
func TestRedoCheckpointTransferCrashSweepTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := transferCrashConfig(1)
	cfg.Discipline = wal.DisciplineRedo
	objs := transferObjects(cfg)
	total := cfg.Accounts * cfg.InitialBalance

	runOne := func(t *testing.T, walPath, ckptDir string, crashAt int, seed int64) int {
		t.Helper()
		backend, err := wal.CreateFileBackend(walPath)
		if err != nil {
			t.Fatal(err)
		}
		var crashed atomic.Bool
		var cp wal.CrashPoint
		if crashAt >= 0 {
			cp = func(batch int, _ []wal.Record) bool {
				if batch >= crashAt {
					crashed.Store(true)
				}
				return crashed.Load()
			}
		}
		log, err := wal.Open(wal.Config{Async: true, Backend: backend, CrashPoint: cp})
		if err != nil {
			t.Fatal(err)
		}
		store, err := checkpoint.OpenFileStore(ckptDir)
		if err != nil {
			t.Fatal(err)
		}
		store.SetCrashHook(func(*checkpoint.Snapshot) bool { return crashed.Load() })
		ba := cfg.BankAccount()
		e := txn.NewEngine(txn.Options{
			RecordHistory: cfg.Record,
			Shards:        cfg.Shards,
			WAL:           log,
			LogDiscipline: wal.DisciplineRedo,
			Checkpoint:    &txn.CheckpointOptions{Store: store},
		})
		for i := 0; i < cfg.Accounts; i++ {
			e.MustRegister(sim.TransferAccountID(i), ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
		}
		c := cfg
		c.Seed = seed
		done := make(chan struct{})
		var ckptWG sync.WaitGroup
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := e.Checkpoint(); err != nil && !errors.Is(err, wal.ErrClosed) {
					t.Errorf("live checkpoint: %v", err)
					return
				}
				runtime.Gosched()
			}
		}()
		sim.RunTransfers(e, c)
		close(done)
		ckptWG.Wait()
		batches := int(e.WAL().Flushes())
		if err := e.Close(); err != nil {
			t.Fatalf("engine close: %v", err)
		}
		return max(batches, int(e.WAL().Flushes()))
	}

	calWal := filepath.Join(dir, "cal.wal")
	batches := runOne(t, calWal, filepath.Join(dir, "cal.ckpt"), -1, 1)
	if batches < 5 {
		t.Fatalf("workload produced only %d batches; sweep needs more boundaries", batches)
	}

	seeded, truncatedPoints := 0, 0
	sweep(t, batches, 28, 16, func(t *testing.T, k int) {
		walPath := filepath.Join(dir, fmt.Sprintf("crash%02d.wal", k))
		ckptDir := filepath.Join(dir, fmt.Sprintf("crash%02d.ckpt", k))
		runOne(t, walPath, ckptDir, k, int64(1000+k))
		durable, err := wal.ReadFileLog(walPath)
		if err != nil {
			t.Fatal(err)
		}
		assertRedoLogClean(t, durable, k)
		vals, recs, snap, _ := restartAllCkptOf(t, walPath, ckptDir, k, objs)
		sum := 0
		for _, obj := range objs {
			bal, err := strconv.Atoi(vals[obj])
			if err != nil {
				t.Fatalf("account %s: unparsable state %q", obj, vals[obj])
			}
			sum += bal
		}
		if sum != total {
			t.Errorf("crash point %d: recovered total %d, want %d — redo-only restart observed half a transfer (snapshot %v, %d retained records)",
				k, sum, total, snap != nil, len(durable))
		}
		if len(recs) != len(durable) {
			t.Errorf("crash point %d: restart grew the log from %d to %d records", k, len(durable), len(recs))
		}
		if snap != nil {
			seeded++
			if snap.Discipline != wal.DisciplineRedo {
				t.Errorf("crash point %d: snapshot discipline %q, want %q", k, snap.Discipline, wal.DisciplineRedo)
			}
			if len(durable) > 0 && durable[0].LSN > 1 {
				truncatedPoints++
				if durable[0].LSN > snap.Frontier {
					t.Errorf("retained log starts at %d, past the snapshot frontier %d",
						durable[0].LSN, snap.Frontier)
				}
			}
		}
		again, _, _, _ := restartAllCkptOf(t, walPath, ckptDir, k, objs)
		for obj, v := range vals {
			if again[obj] != v {
				t.Errorf("account %s: second restart diverged: %s vs %s", obj, again[obj], v)
			}
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
	path := filepath.Join(t.TempDir(), "split.wal")
	backend, err := wal.CreateFileBackend(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
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
	vals, recs, stats := restartRedoAllOf(t, path, 0, objs)
	want := strconv.Itoa(crashInitialBalance)
	for _, obj := range objs {
		if vals[obj] != want {
			t.Errorf("account %s: restarted state %s, want %s (the loser's legs must never be redone)",
				obj, vals[obj], want)
		}
	}
	if stats.Replayed != 0 || stats.Undone != 0 {
		t.Errorf("restart replayed %d and undid %d records; a pure loser log needs neither", stats.Replayed, stats.Undone)
	}
	if len(recs) != 3 {
		t.Errorf("restart changed the log: %d records, want 3 (marker + two redo records)", len(recs))
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
	mkUndoLog := func(t *testing.T, path string) {
		t.Helper()
		backend, err := wal.CreateFileBackend(path)
		if err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(wal.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		e := txn.NewEngine(txn.Options{WAL: log})
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
	}
	mkRedoLog := func(t *testing.T, path string) {
		t.Helper()
		backend, err := wal.CreateFileBackend(path)
		if err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(wal.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		e := txn.NewEngine(txn.Options{WAL: log, LogDiscipline: wal.DisciplineRedo})
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
	}
	reopen := func(t *testing.T, path string) *wal.Log {
		t.Helper()
		backend, err := wal.OpenFileBackend(path)
		if err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(wal.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		return log
	}

	t.Run("redo-engine-over-undo-log", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "undo.wal")
		mkUndoLog(t, path)
		log := reopen(t, path)
		defer log.Close()
		e := txn.NewEngine(txn.Options{WAL: log, LogDiscipline: wal.DisciplineRedo})
		if err := e.Register("X", adt.DefaultBankAccount(), adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery); err == nil {
			t.Fatal("redo-only engine registered over an undo-mode log")
		}
	})
	t.Run("undo-engine-over-redo-log", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "redo.wal")
		mkRedoLog(t, path)
		log := reopen(t, path)
		defer log.Close()
		e := txn.NewEngine(txn.Options{WAL: log})
		if err := e.Register("X", adt.DefaultBankAccount(), adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery); err == nil {
			t.Fatal("undo-logging engine registered over a redo-only log")
		}
	})
	t.Run("redo-restart-of-undo-log", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "undo.wal")
		mkUndoLog(t, path)
		log := reopen(t, path)
		defer log.Close()
		if _, _, err := recovery.RestartRedoOnly([]history.ObjectID{"X"},
			func(history.ObjectID) adt.Machine { return crashMachine() }, log, nil,
			recovery.RestartConfig{}); err == nil {
			t.Fatal("RestartRedoOnly accepted a log with no redo marker")
		}
	})
	t.Run("undo-restart-of-redo-log", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "redo.wal")
		mkRedoLog(t, path)
		log := reopen(t, path)
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
