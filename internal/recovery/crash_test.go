package recovery_test

// The crash-injection harness every crash suite in this package shares. A
// workload (banking below, transfer in transfer_crash_test.go) runs on an
// engine whose WAL sits on a real segmented backend, with a
// wal.CrashPoint dropping every batch from injection point k onward —
// modelling a machine that dies with the log tail still in volatile
// buffers. With checkpointing on, a driver goroutine takes fuzzy
// checkpoints throughout, and the checkpoint store's crash hook shares the
// WAL's crash flag, so log writes and snapshot saves die at the same
// instant. For every k the segment directory is re-opened, restarted, and
// checked against an independent oracle.
//
// The banking sweeps here check restart at transaction granularity: the
// balance an object must have if exactly the transactions whose
// transaction-level commit record (wal.TxnCommitRec) reached durable
// storage before the crash survive. Recovery is presumed-abort, so a
// transaction with durable per-object CommitRecs but no TxnCommitRec is a
// loser everywhere; losers — in-flight or tail-lost transactions — must
// contribute nothing and end the post-restart log aborted.

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

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/spec"
	"repro/internal/txn"
	"repro/internal/wal"
)

const (
	crashObjects        = 4
	crashWorkers        = 5
	crashTxnsPerWorker  = 6
	crashOpsPerTxn      = 3
	crashInitialBalance = 1000

	// segCrashBytes keeps segments a few batches long for the transfer
	// workload (~20-40 bytes per record), so every sweep run rotates many
	// times.
	segCrashBytes = 512
)

var crashBank = adt.BankAccount{InitialBalance: crashInitialBalance, MaxBalance: 1 << 20,
	Amounts: []int{1, 2, 3}}

func crashObjID(i int) history.ObjectID {
	return history.ObjectID(fmt.Sprintf("acct%d", i))
}

func crashObjectIDs() []history.ObjectID {
	objs := make([]history.ObjectID, crashObjects)
	for i := range objs {
		objs[i] = crashObjID(i)
	}
	return objs
}

func crashMachine() adt.Machine { return crashBank.Machine() }

// crashRun is one workload execution under the harness.
type crashRun struct {
	walDir string
	// ckptDir, when set, turns on live checkpointing into a file store
	// there; truncate lets those checkpoints truncate the log.
	ckptDir  string
	truncate bool
	// segBytes is the segment rotation threshold. Zero keeps the whole log
	// in one segment: wal.DefaultSegmentBytes is far larger than any run.
	segBytes int64
	// crashAt is the first batch that never reaches disk (negative: never).
	crashAt    int
	seed       int64
	discipline string
}

// point returns r retargeted at crash point k under dir with its own seed:
// a fresh WAL directory, and a fresh checkpoint directory when r
// checkpoints.
func (r crashRun) point(dir string, k int, seed int64) crashRun {
	r.walDir = filepath.Join(dir, fmt.Sprintf("crash%02d", k))
	if r.ckptDir != "" {
		r.ckptDir = r.walDir + ".ckpt"
	}
	r.crashAt, r.seed = k, seed
	return r
}

// crashResult is what a run leaves for its sweep.
type crashResult struct {
	batches  int // batch boundaries the run produced
	segments int // segment files the run created: live plus unlinked
	e        *txn.Engine
}

// startCrashEngine builds the engine run describes — a fresh segmented
// backend under a log with the crash point, whose commit barriers lead the
// flush rounds, plus the checkpoint store when run checkpoints — registers
// its objects, and starts the checkpoint driver. The returned finish stops
// the driver, closes the engine, checks its live history, and reports.
func startCrashEngine(t *testing.T, run crashRun, opts txn.Options,
	register func(*txn.Engine)) (*txn.Engine, func() crashResult) {
	t.Helper()
	backend, err := wal.CreateSegmentedBackend(run.walDir, wal.SegmentConfig{MaxSegmentBytes: run.segBytes})
	if err != nil {
		t.Fatal(err)
	}
	// One sticky flag: from the injection batch onward, log batches and
	// snapshot saves alike silently stop reaching disk while the live
	// engine keeps acknowledging.
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
	log, err := wal.Open(wal.Config{Backend: backend, CrashPoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	opts.WAL, opts.LogDiscipline = log, run.discipline
	if run.ckptDir != "" {
		store, err := checkpoint.OpenFileStore(run.ckptDir)
		if err != nil {
			t.Fatal(err)
		}
		store.SetCrashHook(func(*checkpoint.Snapshot) bool { return crashed.Load() })
		opts.Checkpoint = &txn.CheckpointOptions{Store: store, DisableTruncation: !run.truncate}
	}
	e := txn.NewEngine(opts)
	register(e)

	done := make(chan struct{})
	var wg sync.WaitGroup
	if run.ckptDir != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
	}
	return e, func() crashResult {
		t.Helper()
		close(done)
		wg.Wait()
		if err := e.Close(); err != nil {
			t.Fatalf("engine close: %v", err)
		}
		if err := history.WellFormed(e.History()); err != nil {
			t.Fatalf("live history malformed: %v", err)
		}
		// Close sequenced any remaining staged records as one final batch.
		st := e.WAL().Stats()
		return crashResult{
			batches:  int(st.Flushes),
			segments: len(e.WAL().SegmentBounds()) + st.Truncate.SegmentsUnlinked,
			e:        e,
		}
	}
}

// runBankingCrash drives the banking workload: crashWorkers clients each
// run crashTxnsPerWorker transactions of random deposits, withdrawals and
// balance reads over crashObjects accounts, a fifth of them aborting
// voluntarily.
func runBankingCrash(t *testing.T, run crashRun) crashResult {
	t.Helper()
	e, finish := startCrashEngine(t, run, txn.Options{RecordHistory: true}, func(e *txn.Engine) {
		for i := 0; i < crashObjects; i++ {
			e.MustRegister(crashObjID(i), crashBank, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
		}
	})
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
					// Interleave so group-commit batches mix transactions
					// even at GOMAXPROCS=1.
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
	return finish()
}

// calibrate checks a sweep's crash-free calibration run: enough batch
// boundaries to sweep, and the segment layout the sweep claims to test —
// exactly one segment when run.segBytes is 0, at least three otherwise so
// crash points land at and around rotation boundaries.
func calibrate(t *testing.T, run crashRun, res crashResult, minBatches int) {
	t.Helper()
	if res.batches < minBatches {
		t.Fatalf("workload produced only %d batches; sweep needs more boundaries", res.batches)
	}
	if run.segBytes == 0 && res.segments != 1 {
		t.Fatalf("calibration run wrote %d segments, want the one unbounded segment", res.segments)
	}
	if run.segBytes > 0 && res.segments < 3 {
		t.Fatalf("calibration run produced only %d segments; crashes cannot land at rotation boundaries", res.segments)
	}
}

// checkCalibration anchors the no-crash semantics of a banking sweep: the
// live history passes the full verification stack, and restart of the
// complete durable log reproduces the live committed state.
func checkCalibration(t *testing.T, run crashRun, e *txn.Engine) {
	t.Helper()
	verifyLiveHistory(t, e)
	r := restartDurable(t, run.walDir, "", crashObjectIDs(), 0)
	for _, obj := range crashObjectIDs() {
		store, _ := e.Object(obj)
		if got, want := r.vals[obj], store.CommittedValue().Encode(); got != want {
			t.Fatalf("no-crash restart of %s: state %s, live state %s", obj, got, want)
		}
	}
}

// sweep runs point(t, k) at a crash sweep's injection points and returns
// how many it ran. Every batch boundary from 0 through span is its own
// subtest, "crash-at-batch-NN". The span is fixed per sweep rather than
// derived from the calibration run's batch count, which varies with
// scheduling, so those subtests are the same on every run. A point past a
// run's last boundary never fires, and restart then sees the complete log.
// Boundaries past span (batches > span) are swept inside the one subtest
// "crash-past-span" at stride ceil(batches/maxPoints). A sweep that crashed
// every boundary up to maxPoints batches and strided ceil(batches/maxPoints)
// beyond keeps at least that density with span >= maxPoints.
func sweep(t *testing.T, batches, span, maxPoints int, point func(t *testing.T, k int)) int {
	t.Helper()
	n := 0
	for k := 0; k <= span; k++ {
		t.Run(fmt.Sprintf("crash-at-batch-%02d", k), func(t *testing.T) { point(t, k) })
		n++
	}
	tail := max(1, (batches+maxPoints-1)/maxPoints)
	t.Run("crash-past-span", func(t *testing.T) {
		cur := -1
		defer func() {
			if t.Failed() {
				t.Logf("failed at crash point %d", cur)
			}
		}()
		for k := span + tail; k <= batches && !t.Failed(); k += tail {
			cur = k
			point(t, k)
			n++
		}
	})
	return n
}

// createLog builds a synchronous log over a fresh segmented backend in dir
// (segBytes 0: one segment), with an optional crash point.
func createLog(t *testing.T, dir string, segBytes int64, cp wal.CrashPoint) *wal.Log {
	t.Helper()
	b, err := wal.CreateSegmentedBackend(dir, wal.SegmentConfig{MaxSegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.Config{Backend: b, CrashPoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// reopenLog re-opens a segment directory after a crash and replays it into
// a fresh synchronous log.
func reopenLog(t *testing.T, dir string) *wal.Log {
	t.Helper()
	b, err := wal.OpenSegmentedBackend(dir, wal.SegmentConfig{})
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	log, err := wal.Open(wal.Config{Backend: b})
	if err != nil {
		t.Fatalf("replay %s: %v", dir, err)
	}
	return log
}

// closeReopen closes log, created over the segment directory dir, and
// reopens dir: the log a restart after the crash reads.
func closeReopen(t *testing.T, log *wal.Log, dir string) *wal.Log {
	t.Helper()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	relog := reopenLog(t, dir)
	t.Cleanup(func() { relog.Close() })
	return relog
}

// readDurable returns the records that survived in a segment directory —
// the oracle's view of what the crash left on disk.
func readDurable(t *testing.T, dir string) []wal.Record {
	t.Helper()
	b, err := wal.OpenSegmentedBackend(dir, wal.SegmentConfig{})
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	recs, _ := b.Replay()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// restarted is one reopen-and-restart of a durable image.
type restarted struct {
	vals  map[history.ObjectID]string // recovered committed value per object
	recs  []wal.Record                // the log after restart, its undo tail included
	snap  *checkpoint.Snapshot        // the snapshot restart was seeded from, if any
	stats recovery.RestartStats
}

// restartDurable models the post-crash process: reopen the segment
// directory, load the newest complete snapshot from ckptDir (none when
// ckptDir is empty), and restart every listed object against the banking
// machine at the given parallelism (0: GOMAXPROCS). Every store must come
// back redo-only iff the log carries the redo marker.
func restartDurable(t *testing.T, walDir, ckptDir string,
	objs []history.ObjectID, parallelism int) restarted {
	t.Helper()
	log := reopenLog(t, walDir)
	var r restarted
	if ckptDir != "" {
		store, err := checkpoint.OpenFileStore(ckptDir)
		if err != nil {
			t.Fatalf("reopen checkpoint store: %v", err)
		}
		if r.snap, err = store.Latest(); err != nil {
			t.Fatalf("load checkpoint: %v", err)
		}
	}
	redo := log.Discipline() == wal.DisciplineRedo
	stores, stats, err := recovery.RestartAllWithConfig(objs,
		func(history.ObjectID) adt.Machine { return crashMachine() }, log, r.snap,
		recovery.RestartConfig{Parallelism: parallelism})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	r.stats = stats
	r.vals = map[history.ObjectID]string{}
	for obj, st := range stores {
		if st.RedoOnly() != redo {
			t.Fatalf("restarted store %s: redo-only %v, want %v (log discipline %q)",
				obj, st.RedoOnly(), redo, log.Discipline())
		}
		r.vals[obj] = st.CommittedValue().Encode()
	}
	if err := log.Close(); err != nil {
		t.Fatalf("close restarted log: %v", err)
	}
	r.recs = readDurable(t, walDir)
	return r
}

// restartErr restarts object X of log — seeded from ckpt when non-nil —
// over the banking machine and returns only the error: the check for logs
// restart must reject.
func restartErr(log *wal.Log, ckpt *checkpoint.Snapshot) error {
	_, _, err := recovery.RestartAllWithConfig([]history.ObjectID{"X"},
		func(history.ObjectID) adt.Machine { return crashMachine() }, log, ckpt, recovery.RestartConfig{})
	return err
}

// restartStable restarts a durable image twice and checks that the second
// restart reproduces the first: the first appended its compensation and
// abort records durably, so the second finds no losers.
func restartStable(t *testing.T, walDir, ckptDir string,
	objs []history.ObjectID) (first, again restarted) {
	t.Helper()
	first = restartDurable(t, walDir, ckptDir, objs, 0)
	again = restartDurable(t, walDir, ckptDir, objs, 0)
	for obj, v := range first.vals {
		if again.vals[obj] != v {
			t.Errorf("object %s: second restart diverged: %s vs %s", obj, again.vals[obj], v)
		}
	}
	return first, again
}

// durableWinners is the oracle's own pass 1: the set of transactions whose
// transaction-level commit record survived in the durable prefix. It is
// deliberately independent of recovery.Winners (same semantics, separate
// code) so the test cannot inherit an implementation bug.
func durableWinners(recs []wal.Record) map[history.TxnID]bool {
	winners := map[history.TxnID]bool{}
	for _, r := range recs {
		if r.Kind == wal.TxnCommitRec {
			winners[r.Txn] = true
		}
	}
	return winners
}

// expectedBalance is the independent redo-only oracle: the balance of obj
// implied by the durable record prefix, counting only the updates (Update
// records under undo logging, RedoRecs under redo-only logging) of
// transaction-granularity winners — transactions whose TxnCommitRec
// survived. Bank-account updates are pure deltas, so the winners-only sum
// is exact regardless of how losers interleaved. A transaction with a
// durable per-object CommitRec at obj but no TxnCommitRec counts for
// nothing: presumed abort makes it a loser at every object, which is
// precisely the transaction-atomicity property the sweeps prove.
func expectedBalance(recs []wal.Record, obj history.ObjectID, initial int) int {
	winners := durableWinners(recs)
	bal := initial
	for _, r := range recs {
		if r.Obj != obj || (r.Kind != wal.Update && r.Kind != wal.RedoRec) || !winners[r.Txn] {
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

// checkOracle checks every object's recovered state against the
// committed-winners oracle over the durable prefix, and that no loser is
// left in flight after restart.
func checkOracle(t *testing.T, durable []wal.Record, r restarted, objs []history.ObjectID) {
	t.Helper()
	for _, obj := range objs {
		if want := strconv.Itoa(expectedBalance(durable, obj, crashInitialBalance)); r.vals[obj] != want {
			t.Errorf("object %s: restarted state %s, oracle %s (snapshot %v, %d durable records)",
				obj, r.vals[obj], want, r.snap != nil, len(durable))
		}
		assertLosersTerminated(t, r.recs, obj)
	}
}

// checkConserved checks that the recovered balances sum to total — no
// restart may observe half a transfer — and that no loser is left in
// flight. Conservation needs no durable prefix, so it also oracles logs
// whose prefix truncation removed.
func checkConserved(t *testing.T, r restarted, objs []history.ObjectID, total int) {
	t.Helper()
	sum := 0
	for _, obj := range objs {
		bal, err := strconv.Atoi(r.vals[obj])
		if err != nil {
			t.Fatalf("account %s: unparsable state %q", obj, r.vals[obj])
		}
		sum += bal
		assertLosersTerminated(t, r.recs, obj)
	}
	if sum != total {
		t.Errorf("recovered total %d, want %d — restart observed half a transfer (snapshot %v, %d records)",
			sum, total, r.snap != nil, len(r.recs))
	}
}

// assertLosersTerminated checks that after Restart every transaction with
// updates at obj either durably committed (TxnCommitRec) or ends with an
// abort record at obj — no in-flight transaction survives restart, and no
// loser is left half-terminated.
func assertLosersTerminated(t *testing.T, recs []wal.Record, obj history.ObjectID) {
	t.Helper()
	winners := durableWinners(recs)
	updated := map[history.TxnID]bool{}
	aborted := map[history.TxnID]bool{}
	for _, r := range recs {
		if r.Obj != obj {
			continue
		}
		switch r.Kind {
		case wal.Update:
			updated[r.Txn] = true
		case wal.AbortRec:
			aborted[r.Txn] = true
		}
	}
	for txid := range updated {
		if !winners[txid] && !aborted[txid] {
			t.Errorf("%s left in flight at %s after restart", txid, obj)
		}
	}
}

// TestCrashInjectionSweep crashes the log at every flush-round boundary
// of the banking workload and proves, per injection point, that restart
// of the re-opened segment (1) reproduces exactly the
// committed-winners state the durable prefix implies, (2) leaves no
// transaction in flight, and (3) is stable: a second crash-free
// reopen-and-restart reproduces the same state from the repaired log.
func TestCrashInjectionSweep(t *testing.T) {
	dir := t.TempDir()
	base := crashRun{walDir: filepath.Join(dir, "cal"), crashAt: -1, seed: 1}
	cal := runBankingCrash(t, base)
	calibrate(t, base, cal, 5)
	checkCalibration(t, base, cal.e)

	// Sweep every boundary through 28, strided past that (see sweep).
	// losersSeen counts injection points whose durable prefix contains
	// updates of a transaction with no terminator — a genuine in-flight
	// loser — so the sweep cannot silently degenerate into clean-shutdown
	// cases only.
	// commitSplits counts the sharper case: a durable per-object CommitRec
	// without the transaction-level commit record, i.e. the crash fell
	// inside the commit protocol itself (rare at one boundary, logged for
	// visibility; the transfer sweep constructs it deterministically).
	losersSeen := 0
	commitSplits := 0
	sweep(t, cal.batches, 28, 28, func(t *testing.T, k int) {
		run := base.point(dir, k, int64(100+k))
		runBankingCrash(t, run)
		durable := readDurable(t, run.walDir)
		if countInFlight(durable) > 0 {
			losersSeen++
		}
		commitSplits += countCommitSplit(durable)
		r, _ := restartStable(t, run.walDir, "", crashObjectIDs())
		checkOracle(t, durable, r, crashObjectIDs())
	})
	if losersSeen == 0 {
		t.Error("no injection point produced an in-flight loser; the sweep is not exercising undo")
	}
	t.Logf("sweep saw %d loser boundaries, %d commit-split transactions", losersSeen, commitSplits)
}

// TestCrashMidAbortCompensation builds, for every prefix of a loser's
// compensation walk, a durable log that ends with partially durable
// compensation records — the machine died during the Abort flush, after
// some CLRs reached the disk but before the abort record — and proves that
// restart resumes the undo exactly where the CLRs stopped, terminates the
// loser, and that a second restart of the repaired log is a fixed point.
func TestCrashMidAbortCompensation(t *testing.T) {
	dir := t.TempDir()
	// The loser applied deposit(5) then withdraw(2); live abort compensates
	// newest-first, so the durable CLR prefixes are: none, withdraw only,
	// withdraw then deposit.
	for clrs := 0; clrs <= 2; clrs++ {
		walDir := filepath.Join(dir, fmt.Sprintf("abort%d", clrs))
		log := createLog(t, walDir, 0, nil)
		u := recovery.NewUndoLog("X", crashMachine(), log)
		// A committed funder, so the loser's undo runs against real state.
		if _, err := recovery.PeekApply(u, "W", adt.Deposit(3)); err != nil {
			t.Fatal(err)
		}
		if err := u.Commit("W"); err != nil {
			t.Fatal(err)
		}
		recovery.AppendDurable(t, log, wal.Record{Kind: wal.TxnCommitRec, Txn: "W"})
		if _, err := recovery.PeekApply(u, "L", adt.Deposit(5)); err != nil {
			t.Fatal(err)
		}
		if _, err := recovery.PeekApply(u, "L", adt.Withdraw(2)); err != nil {
			t.Fatal(err)
		}
		log.Flush()
		// The abort walk, crashed after clrs compensation records: stage
		// exactly what live abort processing would have made durable.
		undoOps := []spec.Operation{adt.WithdrawOk(2), adt.DepositOk(5)}
		for i := 0; i < clrs; i++ {
			recovery.AppendDurable(t, log, wal.Record{Kind: wal.CompensationRec, Txn: "L", Obj: "X", Op: undoOps[i]})
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		want := strconv.Itoa(crashInitialBalance + 3)
		r, _ := restartStable(t, walDir, "", []history.ObjectID{"X"})
		if r.vals["X"] != want {
			t.Errorf("%d durable CLRs: restarted state %s, want %s (loser fully undone)", clrs, r.vals["X"], want)
		}
		assertLosersTerminated(t, r.recs, "X")
	}
}

// countInFlight returns the number of transactions with durable updates
// that neither durably committed (TxnCommitRec) nor durably aborted at
// every updated object — the losers whose undo the restart must perform.
func countInFlight(recs []wal.Record) int {
	winners := durableWinners(recs)
	updated := map[history.TxnID]map[history.ObjectID]bool{}
	aborted := map[history.TxnID]map[history.ObjectID]bool{}
	mark := func(m map[history.TxnID]map[history.ObjectID]bool, t history.TxnID, o history.ObjectID) {
		if m[t] == nil {
			m[t] = map[history.ObjectID]bool{}
		}
		m[t][o] = true
	}
	for _, r := range recs {
		switch r.Kind {
		case wal.Update:
			mark(updated, r.Txn, r.Obj)
		case wal.AbortRec:
			mark(aborted, r.Txn, r.Obj)
		}
	}
	n := 0
	for txid, objs := range updated {
		if winners[txid] {
			continue
		}
		for o := range objs {
			if !aborted[txid][o] {
				n++
				break
			}
		}
	}
	return n
}

// countCommitSplit returns the number of transactions whose durable prefix
// contains at least one per-object CommitRec but no TxnCommitRec — the
// crash fell inside the commit protocol, after some commit processing but
// before the transaction-level commit point. These are exactly the
// prefixes that per-object recovery used to restore half-committed.
func countCommitSplit(recs []wal.Record) int {
	winners := durableWinners(recs)
	seen := map[history.TxnID]bool{}
	n := 0
	for _, r := range recs {
		if r.Kind == wal.CommitRec && !winners[r.Txn] && !seen[r.Txn] {
			seen[r.Txn] = true
			n++
		}
	}
	return n
}

// verifyLiveHistory replays the merged engine history through the full
// verification stack: well-formedness, per-object acceptance by the
// abstract UIP automaton, and sampled dynamic atomicity.
func verifyLiveHistory(t *testing.T, e *txn.Engine) {
	t.Helper()
	h := e.History()
	if err := history.WellFormed(h); err != nil {
		t.Fatalf("recorded history not well-formed: %v", err)
	}
	sp := crashBank.Spec()
	rel := adt.DefaultBankAccount().NRBC()
	specs := atomicity.Specs{}
	for _, obj := range crashObjectIDs() {
		specs[obj] = sp
		ok, idx, reason := core.Accepts(obj, sp, core.UIP, rel, h.ProjectObj(obj))
		if !ok {
			t.Fatalf("object %s: history rejected by abstract model at event %d: %s", obj, idx, reason)
		}
	}
	rng := rand.New(rand.NewSource(7))
	da, viol, err := atomicity.DynamicAtomicSampled(h, specs, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !da {
		t.Fatalf("history not dynamic atomic: %v", viol)
	}
}
