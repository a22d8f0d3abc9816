package recovery_test

// Checkpointed crash harness: the crash-injection sweeps of crash_test.go
// and transfer_crash_test.go re-run with fuzzy checkpointing live — a
// driver taking checkpoints concurrently with the workload, a file-backed
// checkpoint store whose crash hook shares the WAL's crash flag (the
// machine's log writes and checkpoint saves die at the same instant), and
// restart seeded from the newest durable snapshot. The sweeps prove, at
// every batch boundary including boundaries inside a checkpoint:
//
//   - a checkpoint-seeded restart recovers exactly the committed-winners
//     state of the full durable log (the truncation-disabled sweep, whose
//     oracle reads the whole file);
//   - with truncation enabled the retained suffix plus the snapshot still
//     recover a conserved, loser-free, fixed-point state (the transfer
//     sweep — conservation is prefix-independent, so it oracles a log
//     whose prefix no longer exists);
//   - pass 2 replays exactly the records past each object's capture
//     marker, no more (the per-point replay/skip accounting);
//   - a checkpoint that "completed" after the crash instant never becomes
//     authoritative — the previous snapshot is (deterministic test);
//   - a crash between checkpoint completion and truncation is safe
//     (deterministic test: the snapshot seeds restart over the
//     untruncated log and skips the prefix per object).

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
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

// ckptCrashRun is one workload execution with live checkpointing and crash
// injection at batch crashAt (negative = never).
type ckptCrashRun struct {
	walPath  string
	ckptDir  string
	crashAt  int
	seed     int64
	truncate bool
}

// runCheckpointedBanking drives the banking workload of crash_test.go with
// a concurrent checkpoint driver. The WAL crash point and the checkpoint
// store's crash hook share one flag: from the injection batch onward, log
// batches and snapshot saves alike silently stop reaching disk while the
// live engine keeps acknowledging — the CrashPoint contract extended to
// the checkpoint store.
func runCheckpointedBanking(t *testing.T, run ckptCrashRun) int {
	t.Helper()
	backend, err := wal.CreateFileBackend(run.walPath)
	if err != nil {
		t.Fatal(err)
	}
	var crashed atomic.Bool
	var cp wal.CrashPoint
	if run.crashAt >= 0 {
		cp = func(batch int, _ []wal.Record) bool {
			if batch >= run.crashAt {
				crashed.Store(true)
			}
			return crashed.Load()
		}
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
	store, err := checkpoint.OpenFileStore(run.ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetCrashHook(func(*checkpoint.Snapshot) bool { return crashed.Load() })
	ba := adt.BankAccount{InitialBalance: crashInitialBalance, MaxBalance: 1 << 20,
		Amounts: []int{1, 2, 3}}
	rel := adt.DefaultBankAccount().NRBC()
	e := txn.NewEngine(txn.Options{
		RecordHistory: true,
		Shards:        4,
		WAL:           log,
		Checkpoint: &txn.CheckpointOptions{
			Store:             store,
			DisableTruncation: !run.truncate,
		},
	})
	for i := 0; i < crashObjects; i++ {
		e.MustRegister(crashObjID(i), ba, rel, txn.UndoLogRecovery)
	}

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
			if _, err := e.Checkpoint(); err != nil {
				// A closed log losing the shutdown race is the only
				// acceptable failure here.
				if !errors.Is(err, wal.ErrClosed) {
					t.Errorf("live checkpoint: %v", err)
				}
				return
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < crashWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(run.seed + int64(w)*6151))
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
	close(done)
	ckptWG.Wait()
	batches := int(e.WAL().Flushes())
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	if err := history.WellFormed(e.History()); err != nil {
		t.Fatalf("live history malformed: %v", err)
	}
	return max(batches, int(e.WAL().Flushes()))
}

// restartAllCkptOf models the post-crash process: reopen the durable log
// file, load the newest complete snapshot from the checkpoint store, and
// run the checkpoint-seeded restart over every object.
func restartAllCkptOf(t *testing.T, walPath, ckptDir string, point int,
	objs []history.ObjectID) (map[history.ObjectID]string, []wal.Record, *checkpoint.Snapshot, recovery.RestartStats) {
	t.Helper()
	backend, err := wal.OpenFileBackend(walPath)
	if err != nil {
		t.Fatalf("crash point %d: reopen: %v", point, err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatalf("crash point %d: replay: %v", point, err)
	}
	store, err := checkpoint.OpenFileStore(ckptDir)
	if err != nil {
		t.Fatalf("crash point %d: reopen checkpoint store: %v", point, err)
	}
	snap, err := store.Latest()
	if err != nil {
		t.Fatalf("crash point %d: load checkpoint: %v", point, err)
	}
	stores, stats, err := recovery.RestartAllWithCheckpoint(objs,
		func(history.ObjectID) adt.Machine { return crashMachine() }, log, snap)
	if err != nil {
		t.Fatalf("crash point %d: checkpointed restart: %v", point, err)
	}
	vals := map[history.ObjectID]string{}
	for obj, st := range stores {
		vals[obj] = st.CommittedValue().Encode()
	}
	recs := log.Snapshot()
	if err := log.Close(); err != nil {
		t.Fatalf("crash point %d: close restarted log: %v", point, err)
	}
	return vals, recs, snap, stats
}

// expectedReplaySplit computes, per object, what a checkpoint-seeded pass 2
// must replay and skip over the given records: non-marker records past the
// object's capture marker are replayed, everything at or below it is
// skipped. This is the independent accounting the sweep checks
// RestartStats against.
func expectedReplaySplit(recs []wal.Record, objs []history.ObjectID, snap *checkpoint.Snapshot) (replayed, skipped int) {
	markers := map[history.ObjectID]wal.LSN{}
	for _, obj := range objs {
		if os := snap.Object(obj); os != nil {
			markers[obj] = os.MarkerLSN
		}
	}
	in := map[history.ObjectID]bool{}
	for _, obj := range objs {
		in[obj] = true
	}
	for _, r := range recs {
		if !in[r.Obj] {
			continue
		}
		switch {
		case r.LSN <= markers[r.Obj]:
			skipped++
		case r.Kind != wal.CheckpointRec:
			replayed++
		}
	}
	return replayed, skipped
}

// TestCheckpointCrashSweepOracle: the banking crash sweep with live fuzzy
// checkpointing and truncation disabled, so the full durable log remains
// for the independent committed-winners oracle. At every boundary —
// including boundaries that fall mid-checkpoint — the checkpoint-seeded
// restart must equal the oracle exactly, terminate every loser, replay
// exactly the per-object suffixes past the capture markers, and reproduce
// itself on a second restart.
func TestCheckpointCrashSweepOracle(t *testing.T) {
	dir := t.TempDir()
	cal := ckptCrashRun{
		walPath: filepath.Join(dir, "cal.wal"),
		ckptDir: filepath.Join(dir, "cal.ckpt"),
		crashAt: -1, seed: 1,
	}
	batches := runCheckpointedBanking(t, cal)
	if batches < 5 {
		t.Fatalf("workload produced only %d batches; sweep needs more boundaries", batches)
	}

	objs := make([]history.ObjectID, crashObjects)
	for i := range objs {
		objs[i] = crashObjID(i)
	}
	seeded := 0
	skippedTotal := 0
	points := sweep(t, batches, 16, 16, func(t *testing.T, k int) {
		run := ckptCrashRun{
			walPath: filepath.Join(dir, fmt.Sprintf("crash%02d.wal", k)),
			ckptDir: filepath.Join(dir, fmt.Sprintf("crash%02d.ckpt", k)),
			crashAt: k, seed: int64(100 + k),
		}
		runCheckpointedBanking(t, run)
		durable, err := wal.ReadFileLog(run.walPath)
		if err != nil {
			t.Fatal(err)
		}
		vals, recs, snap, stats := restartAllCkptOf(t, run.walPath, run.ckptDir, k, objs)
		for _, obj := range objs {
			want := strconv.Itoa(expectedBalance(durable, obj, crashInitialBalance))
			if vals[obj] != want {
				t.Errorf("object %s: checkpointed restart state %s, oracle %s (snapshot %v, %d durable records)",
					obj, vals[obj], want, snap != nil, len(durable))
			}
			assertLosersTerminated(t, recs, obj, k)
		}
		if snap != nil {
			seeded++
			wantReplay, wantSkip := expectedReplaySplit(durable, objs, snap)
			if stats.Replayed != wantReplay || stats.Skipped != wantSkip {
				t.Errorf("replay accounting: replayed %d skipped %d, want %d/%d — restart did not replay exactly the post-marker suffixes",
					stats.Replayed, stats.Skipped, wantReplay, wantSkip)
			}
			skippedTotal += stats.Skipped
			if stats.SeededObjects != len(snap.Objects) {
				t.Errorf("seeded %d objects, snapshot carries %d", stats.SeededObjects, len(snap.Objects))
			}
		}
		again, _, _, _ := restartAllCkptOf(t, run.walPath, run.ckptDir, k, objs)
		for obj, v := range vals {
			if again[obj] != v {
				t.Errorf("object %s: second checkpointed restart diverged: %s vs %s", obj, again[obj], v)
			}
		}
	})
	if seeded == 0 {
		t.Error("no injection point restarted from a durable checkpoint; the sweep is not exercising seeding")
	}
	if skippedTotal == 0 {
		t.Error("no injection point skipped prefix records; checkpoints never bounded the replay")
	}
	t.Logf("sweep: %d/%d points restarted from a checkpoint, %d prefix records skipped in total",
		seeded, points, skippedTotal)
}

// TestCheckpointTransferCrashSweepTruncated: the fan-out transfer crash
// sweep with live checkpointing and log truncation enabled — restart sees
// only the snapshot plus the retained suffix, the regime production
// systems actually run in. Conservation is the oracle (it needs no
// truncated prefix): at every boundary the recovered accounts must sum to
// the initial total, with no loser left in flight, a fixed point under a
// second restart, and the replay bounded by the retained suffix past the
// frontier.
func TestCheckpointTransferCrashSweepTruncated(t *testing.T) {
	dir := t.TempDir()
	cfg := transferCrashConfig(1)
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
	sweep(t, batches, 48, 16, func(t *testing.T, k int) {
		walPath := filepath.Join(dir, fmt.Sprintf("crash%02d.wal", k))
		ckptDir := filepath.Join(dir, fmt.Sprintf("crash%02d.ckpt", k))
		runOne(t, walPath, ckptDir, k, int64(1000+k))
		durable, err := wal.ReadFileLog(walPath)
		if err != nil {
			t.Fatal(err)
		}
		vals, recs, snap, stats := restartAllCkptOf(t, walPath, ckptDir, k, objs)
		sum := 0
		for _, obj := range objs {
			bal, err := strconv.Atoi(vals[obj])
			if err != nil {
				t.Fatalf("account %s: unparsable state %q", obj, vals[obj])
			}
			sum += bal
			assertLosersTerminated(t, recs, obj, k)
		}
		if sum != total {
			t.Errorf("crash point %d: recovered total %d, want %d — checkpointed restart observed half a transfer (snapshot %v, %d retained records)",
				k, sum, total, snap != nil, len(durable))
		}
		if snap != nil {
			seeded++
			if len(durable) > 0 && durable[0].LSN > 1 {
				truncatedPoints++
				if durable[0].LSN > snap.Frontier {
					t.Errorf("retained log starts at %d, past the snapshot frontier %d — truncation outran its checkpoint",
						durable[0].LSN, snap.Frontier)
				}
			}
			wantReplay, wantSkip := expectedReplaySplit(durable, objs, snap)
			if stats.Replayed != wantReplay || stats.Skipped != wantSkip {
				t.Errorf("replay accounting: replayed %d skipped %d, want %d/%d",
					stats.Replayed, stats.Skipped, wantReplay, wantSkip)
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
		t.Error("no injection point saw a truncated durable log; the sweep is not exercising bounded-suffix restart")
	}
	t.Logf("sweep: %d points checkpoint-seeded, %d with a truncated durable log", seeded, truncatedPoints)
}

// TestCheckpointMidCrashPreviousAuthoritative pins the mid-checkpoint
// crash boundary deterministically: a first checkpoint completes durably,
// the machine "dies" (log writes and checkpoint saves both stop reaching
// disk), and a second checkpoint appears to complete on the dying machine.
// After the crash, the store must still answer with the first checkpoint,
// and restart from it must equal the full-log oracle — the in-memory-only
// truncation the doomed second checkpoint performed must not have touched
// the durable file.
func TestCheckpointMidCrashPreviousAuthoritative(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "mid.wal")
	ckptDir := filepath.Join(dir, "mid.ckpt")
	backend, err := wal.CreateFileBackend(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var crashed atomic.Bool
	log, err := wal.Open(wal.Config{
		Backend:    backend,
		CrashPoint: func(int, []wal.Record) bool { return crashed.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.OpenFileStore(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetCrashHook(func(*checkpoint.Snapshot) bool { return crashed.Load() })
	ba := adt.BankAccount{InitialBalance: crashInitialBalance, MaxBalance: 1 << 20,
		Amounts: []int{1, 2, 3}}
	e := txn.NewEngine(txn.Options{
		WAL:        log,
		Checkpoint: &txn.CheckpointOptions{Store: store},
	})
	e.MustRegister("X", ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)

	commitOne := func(amount int) {
		tx := e.Begin()
		if _, err := tx.Invoke("X", adt.Deposit(amount)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commitOne(5)
	snap1, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	commitOne(7) // durable: survives the crash
	crashed.Store(true)
	commitOne(9) // acked by the dying machine, never reaches the file
	snap2, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("the dying machine must believe its checkpoint succeeded: %v", err)
	}
	if snap2.ID == snap1.ID {
		t.Fatal("second checkpoint did not advance")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	durable, err := wal.ReadFileLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// The first checkpoint's truncation reached the file (its prefix is
	// gone); the doomed second checkpoint's must not have — deposit(7)'s
	// records, staged between the two, have to survive.
	if len(durable) == 0 || durable[0].LSN <= 1 {
		t.Fatal("first checkpoint's truncation never reached the durable file")
	}
	if durable[0].LSN > snap1.Frontier {
		t.Fatalf("durable log starts at %d, past the surviving checkpoint's frontier %d — "+
			"the dying machine's truncation reached the file", durable[0].LSN, snap1.Frontier)
	}
	vals, _, snap, stats := restartAllCkptOf(t, walPath, ckptDir, 0, []history.ObjectID{"X"})
	if snap == nil || snap.ID != snap1.ID {
		t.Fatalf("authoritative snapshot = %+v, want the pre-crash %s", snap, snap1.ID)
	}
	// deposit(5) is inside the snapshot, deposit(7) replays from the
	// durable suffix, deposit(9) died with the machine.
	if want := strconv.Itoa(crashInitialBalance + 5 + 7); vals["X"] != want {
		t.Fatalf("restart state %s, want %s", vals["X"], want)
	}
	if stats.SeededObjects != 1 {
		t.Fatalf("restart did not seed from the surviving checkpoint: %+v", stats)
	}
	again, _, _, _ := restartAllCkptOf(t, walPath, ckptDir, 0, []history.ObjectID{"X"})
	if again["X"] != vals["X"] {
		t.Fatalf("second restart diverged: %s vs %s", again["X"], vals["X"])
	}
}

// TestTruncatedLogRequiresSnapshot: restarting a truncated log without
// its checkpoint must fail loudly — replaying the bare suffix from initial
// state would often pass the per-record response checks and return
// silently wrong balances.
func TestTruncatedLogRequiresSnapshot(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "req.wal")
	backend, err := wal.CreateFileBackend(walPath)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.OpenFileStore(filepath.Join(dir, "req.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ba := adt.BankAccount{InitialBalance: crashInitialBalance, MaxBalance: 1 << 20,
		Amounts: []int{1, 2, 3}}
	e := txn.NewEngine(txn.Options{WAL: log, Checkpoint: &txn.CheckpointOptions{Store: store}})
	e.MustRegister("X", ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
	tx := e.Begin()
	if _, err := tx.Invoke("X", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := wal.OpenFileBackend(walPath)
	if err != nil {
		t.Fatal(err)
	}
	relog, err := wal.Open(wal.Config{Backend: reopened})
	if err != nil {
		t.Fatal(err)
	}
	defer relog.Close()
	if relog.Base() == 0 {
		t.Fatal("log was not truncated; the guard is not exercised")
	}
	if _, err := recovery.RestartAll([]history.ObjectID{"X"},
		func(history.ObjectID) adt.Machine { return crashMachine() }, relog); err == nil {
		t.Fatal("restart of a truncated log without its snapshot must fail")
	}
}

// TestCheckpointCompletionTruncationGap pins the other deterministic
// boundary: a checkpoint completes durably but the crash (here: a clean
// stop with truncation disabled) prevents the truncation. Restart seeded
// from the snapshot over the full, untruncated log must skip exactly the
// per-object prefixes and agree with both the plain full-log restart and
// the oracle — proving the truncation is an optimization, never a
// correctness step, so a crash anywhere between completion and truncation
// is safe.
func TestCheckpointCompletionTruncationGap(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "gap.wal")
	ckptDir := filepath.Join(dir, "gap.ckpt")
	backend, err := wal.CreateFileBackend(walPath)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.OpenFileStore(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	ba := adt.BankAccount{InitialBalance: crashInitialBalance, MaxBalance: 1 << 20,
		Amounts: []int{1, 2, 3}}
	e := txn.NewEngine(txn.Options{
		WAL:        log,
		Checkpoint: &txn.CheckpointOptions{Store: store, DisableTruncation: true},
	})
	e.MustRegister("X", ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
	e.MustRegister("Y", ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)

	commit := func(obj history.ObjectID, amount int) {
		tx := e.Begin()
		if _, err := tx.Invoke(obj, adt.Deposit(amount)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit("X", 5)
	commit("Y", 11)
	// An in-flight transaction spans the checkpoint: captured in X's
	// table, never decided — restart must undo it from the snapshot.
	hang := e.Begin()
	if _, err := hang.Invoke("X", adt.Deposit(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commit("Y", 3)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	durable, err := wal.ReadFileLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if durable[0].LSN != 1 {
		t.Fatalf("log was truncated (first LSN %d); the gap test needs the full log", durable[0].LSN)
	}
	objs := []history.ObjectID{"X", "Y"}
	vals, recs, snap, stats := restartAllCkptOf(t, walPath, ckptDir, 0, objs)
	if snap == nil {
		t.Fatal("no snapshot survived")
	}
	for _, obj := range objs {
		want := strconv.Itoa(expectedBalance(durable, obj, crashInitialBalance))
		if vals[obj] != want {
			t.Errorf("object %s: seeded restart %s, oracle %s", obj, vals[obj], want)
		}
		assertLosersTerminated(t, recs, obj, 0)
	}
	if vals["X"] != strconv.Itoa(crashInitialBalance+5) {
		t.Errorf("X = %s: the in-flight deposit was not undone from the snapshot table", vals["X"])
	}
	if stats.Skipped == 0 || stats.SeededTxns == 0 {
		t.Fatalf("restart did not exercise seeding: %+v", stats)
	}
	// And the plain full-log restart agrees — the snapshot changed the
	// cost, not the answer.
	plain, _ := restartAllOf(t, walPath, 0, objs)
	for obj, v := range vals {
		if plain[obj] != v {
			t.Errorf("object %s: seeded %s vs full-log %s", obj, v, plain[obj])
		}
	}
}
