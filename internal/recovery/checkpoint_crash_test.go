package recovery_test

// Checkpointed crash sweeps: the crash harness of crash_test.go with fuzzy
// checkpointing live — a driver taking checkpoints concurrently with the
// workload, a file checkpoint store whose crash hook shares the WAL's
// crash flag, and restart seeded from the newest durable snapshot. The
// sweeps prove, at every batch boundary including boundaries inside a
// checkpoint:
//
//   - a checkpoint-seeded restart recovers exactly the committed-winners
//     state of the full durable log (the truncation-disabled sweep, whose
//     oracle reads the whole log);
//   - with truncation enabled the retained segments plus the snapshot
//     still recover a conserved, loser-free, fixed-point state (the
//     transfer sweeps — conservation is prefix-independent, so it oracles
//     a log whose prefix no longer exists);
//   - pass 2 replays exactly the records past each object's capture
//     marker, no more (the per-point replay/skip accounting);
//   - a checkpoint that "completed" after the crash instant never becomes
//     authoritative — the previous snapshot is (deterministic test);
//   - a crash between checkpoint completion and truncation is safe
//     (deterministic test: the snapshot seeds restart over the
//     untruncated log and skips the prefix per object).

import (
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/history"
	"repro/internal/txn"
	"repro/internal/wal"
)

// checkReplaySplit checks a checkpoint-seeded restart's pass-2 accounting
// against an independent count over the durable records: per object,
// non-marker records past the object's capture marker are replayed,
// everything at or below it is skipped.
func checkReplaySplit(t *testing.T, durable []wal.Record, objs []history.ObjectID, r restarted) {
	t.Helper()
	markers := map[history.ObjectID]wal.LSN{}
	in := map[history.ObjectID]bool{}
	for _, obj := range objs {
		in[obj] = true
	}
	if r.snap != nil {
		for _, os := range r.snap.Objects {
			if in[os.Obj] {
				markers[os.Obj] = os.MarkerLSN
			}
		}
	}
	replayed, skipped := 0, 0
	for _, rec := range durable {
		if !in[rec.Obj] {
			continue
		}
		switch {
		case rec.LSN <= markers[rec.Obj]:
			skipped++
		case rec.Kind != wal.CheckpointRec:
			replayed++
		}
	}
	if r.stats.Replayed != replayed || r.stats.Skipped != skipped {
		t.Errorf("replay accounting: replayed %d skipped %d, want %d/%d — restart did not replay exactly the post-marker suffixes",
			r.stats.Replayed, r.stats.Skipped, replayed, skipped)
	}
}

// truncatedBy reports whether the durable log lost a prefix to truncation,
// and checks that the truncation did not outrun the snapshot that
// justified it.
func truncatedBy(t *testing.T, durable []wal.Record, snap *checkpoint.Snapshot) bool {
	t.Helper()
	if len(durable) == 0 || durable[0].LSN <= 1 {
		return false
	}
	if durable[0].LSN > snap.Frontier {
		t.Errorf("retained log starts at %d, past the snapshot frontier %d — truncation outran its checkpoint",
			durable[0].LSN, snap.Frontier)
	}
	return true
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
	objs := crashObjectIDs()
	base := crashRun{walDir: filepath.Join(dir, "cal"), ckptDir: filepath.Join(dir, "cal.ckpt"), crashAt: -1, seed: 1}
	cal := runBankingCrash(t, base)
	calibrate(t, base, cal, 5)

	seeded := 0
	skippedTotal := 0
	points := sweep(t, cal.batches, 16, 16, func(t *testing.T, k int) {
		run := base.point(dir, k, int64(100+k))
		runBankingCrash(t, run)
		durable := readDurable(t, run.walDir)
		r, _ := restartStable(t, run.walDir, run.ckptDir, objs)
		checkOracle(t, durable, r, objs)
		if r.snap == nil {
			return
		}
		seeded++
		checkReplaySplit(t, durable, objs, r)
		skippedTotal += r.stats.Skipped
		if r.stats.SeededObjects != len(r.snap.Objects) {
			t.Errorf("seeded %d objects, snapshot carries %d", r.stats.SeededObjects, len(r.snap.Objects))
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

// The truncating checkpointed transfer sweep, once with 64-byte segments
// (a batch or two each, so truncation lands within a batch or two of the
// frontier) and once with 512-byte segments (truncation aligns down to a
// segment start well below the frontier).
func TestCheckpointTransferCrashSweepTruncated(t *testing.T) { ckptTransferCrashSweep(t, 64, 48, 16) }

func TestCheckpointTransferCrashSweepSegmented(t *testing.T) {
	ckptTransferCrashSweep(t, segCrashBytes, 30, 12)
}

// ckptTransferCrashSweep runs the fan-out transfer crash sweep with live
// checkpointing and log truncation enabled on segments of segBytes —
// restart sees only the snapshot plus the retained segments, the regime
// production systems actually run in. Conservation is the oracle (it needs
// no truncated prefix): at every boundary the recovered accounts must sum
// to the initial total, with no loser left in flight, a fixed point under
// a second restart, the replay bounded by the retained records past each
// capture marker, and the retained log starting at or below the snapshot
// frontier.
func ckptTransferCrashSweep(t *testing.T, segBytes int64, span, maxPoints int) {
	dir := t.TempDir()
	cfg := transferCrashConfig(1)
	objs := transferObjects(cfg)
	total := cfg.Accounts * cfg.InitialBalance
	base := crashRun{walDir: filepath.Join(dir, "cal"), ckptDir: filepath.Join(dir, "cal.ckpt"), truncate: true,
		segBytes: segBytes, crashAt: -1, seed: 1}
	cal := runTransferCrash(t, base)
	calibrate(t, base, cal, 5)

	seeded, truncatedPoints := 0, 0
	sweep(t, cal.batches, span, maxPoints, func(t *testing.T, k int) {
		run := base.point(dir, k, int64(1000+k))
		runTransferCrash(t, run)
		durable := readDurable(t, run.walDir)
		r, _ := restartStable(t, run.walDir, run.ckptDir, objs)
		checkConserved(t, r, objs, total)
		if r.snap == nil {
			return
		}
		seeded++
		if truncatedBy(t, durable, r.snap) {
			truncatedPoints++
		}
		checkReplaySplit(t, durable, objs, r)
	})
	if seeded == 0 {
		t.Error("no injection point restarted from a durable checkpoint")
	}
	if truncatedPoints == 0 {
		t.Error("no injection point saw a truncated (segment-unlinked) durable log; the sweep is not exercising bounded-suffix restart")
	}
	t.Logf("sweep: %d points checkpoint-seeded, %d with unlinked segments", seeded, truncatedPoints)
}

// TestCheckpointMidCrashPreviousAuthoritative pins the mid-checkpoint
// crash boundary deterministically: a first checkpoint completes durably,
// the machine "dies" (log writes and checkpoint saves both stop reaching
// disk), and a second checkpoint appears to complete on the dying machine.
// After the crash, the store must still answer with the first checkpoint,
// and restart from it must equal the full-log oracle — the in-memory-only
// truncation the doomed second checkpoint performed must not have touched
// the durable segments. One segment per batch lets the first checkpoint's
// truncation land at the batch holding its frontier.
func TestCheckpointMidCrashPreviousAuthoritative(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "mid")
	ckptDir := filepath.Join(dir, "mid.ckpt")
	var crashed atomic.Bool
	log := createLog(t, walDir, 1, func(int, []wal.Record) bool { return crashed.Load() })
	store, err := checkpoint.OpenFileStore(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetCrashHook(func(*checkpoint.Snapshot) bool { return crashed.Load() })
	e := txn.NewEngine(txn.Options{
		WAL:        log,
		Checkpoint: &txn.CheckpointOptions{Store: store},
	})
	e.MustRegister("X", crashBank, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)

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
	commitOne(9) // acked by the dying machine, never reaches the disk
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

	// The first checkpoint's truncation reached the disk (its prefix is
	// gone); the doomed second checkpoint's must not have — deposit(7)'s
	// records, staged between the two, have to survive.
	durable := readDurable(t, walDir)
	if len(durable) == 0 || durable[0].LSN <= 1 {
		t.Fatal("first checkpoint's truncation never reached the durable log")
	}
	if durable[0].LSN > snap1.Frontier {
		t.Fatalf("durable log starts at %d, past the surviving checkpoint's frontier %d — "+
			"the dying machine's truncation reached the disk", durable[0].LSN, snap1.Frontier)
	}
	r, _ := restartStable(t, walDir, ckptDir, []history.ObjectID{"X"})
	if r.snap == nil || r.snap.ID != snap1.ID {
		t.Fatalf("authoritative snapshot = %+v, want the pre-crash %s", r.snap, snap1.ID)
	}
	// deposit(5) is inside the snapshot, deposit(7) replays from the
	// durable suffix, deposit(9) died with the machine.
	if want := strconv.Itoa(crashInitialBalance + 5 + 7); r.vals["X"] != want {
		t.Fatalf("restart state %s, want %s", r.vals["X"], want)
	}
	if r.stats.SeededObjects != 1 {
		t.Fatalf("restart did not seed from the surviving checkpoint: %+v", r.stats)
	}
}

// TestTruncatedLogRequiresSnapshot: restarting a truncated log without
// its checkpoint must fail loudly — replaying the bare suffix from initial
// state would often pass the per-record response checks and return
// silently wrong balances.
func TestTruncatedLogRequiresSnapshot(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "req")
	log := createLog(t, walDir, 1, nil)
	store, err := checkpoint.OpenFileStore(filepath.Join(dir, "req.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	e := txn.NewEngine(txn.Options{WAL: log, Checkpoint: &txn.CheckpointOptions{Store: store}})
	e.MustRegister("X", crashBank, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
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

	relog := reopenLog(t, walDir)
	defer relog.Close()
	if relog.Base() == 0 {
		t.Fatal("log was not truncated; the guard is not exercised")
	}
	if err := restartErr(relog, nil); err == nil {
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
	walDir := filepath.Join(dir, "gap")
	ckptDir := filepath.Join(dir, "gap.ckpt")
	log := createLog(t, walDir, 0, nil)
	store, err := checkpoint.OpenFileStore(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	e := txn.NewEngine(txn.Options{
		WAL:        log,
		Checkpoint: &txn.CheckpointOptions{Store: store, DisableTruncation: true},
	})
	e.MustRegister("X", crashBank, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
	e.MustRegister("Y", crashBank, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)

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

	durable := readDurable(t, walDir)
	if durable[0].LSN != 1 {
		t.Fatalf("log was truncated (first LSN %d); the gap test needs the full log", durable[0].LSN)
	}
	objs := []history.ObjectID{"X", "Y"}
	r := restartDurable(t, walDir, ckptDir, objs, 0)
	if r.snap == nil {
		t.Fatal("no snapshot survived")
	}
	checkOracle(t, durable, r, objs)
	if r.vals["X"] != strconv.Itoa(crashInitialBalance+5) {
		t.Errorf("X = %s: the in-flight deposit was not undone from the snapshot table", r.vals["X"])
	}
	if r.stats.Skipped == 0 || r.stats.SeededTxns == 0 {
		t.Fatalf("restart did not exercise seeding: %+v", r.stats)
	}
	// And the plain full-log restart agrees — the snapshot changed the
	// cost, not the answer.
	plain := restartDurable(t, walDir, "", objs, 0)
	for obj, v := range r.vals {
		if plain.vals[obj] != v {
			t.Errorf("object %s: seeded %s vs full-log %s", obj, v, plain.vals[obj])
		}
	}
}
