package recovery_test

// Crash-injection harness: run a banking workload on an engine whose WAL
// is asynchronous over a real file backend, with a wal.CrashPoint dropping
// every batch from injection point k onward — modelling a machine that
// dies with the log tail still in volatile buffers. For every k the
// durable file is re-opened, recovery.Restart rebuilds each object, and
// the result is checked against an independent redo-only oracle at
// transaction granularity: the balance an object must have if exactly the
// transactions whose transaction-level commit record (wal.TxnCommitRec)
// reached durable storage before the crash survive. Recovery is
// presumed-abort, so a transaction with durable per-object CommitRecs but
// no TxnCommitRec is a loser everywhere; losers — in-flight or tail-lost
// transactions — must contribute nothing and end the post-restart log
// aborted.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/atomicity"
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
)

func crashObjID(i int) history.ObjectID {
	return history.ObjectID(fmt.Sprintf("acct%d", i))
}

func crashMachine() adt.Machine {
	return adt.BankAccount{InitialBalance: crashInitialBalance, MaxBalance: 1 << 20,
		Amounts: []int{1, 2, 3}}.Machine()
}

// runCrashWorkload drives the banking workload against a file-backed async
// WAL that stops persisting at batch crashAt (crashAt < 0 = never crash),
// under the default release policy. It returns the number of batch
// boundaries the run produced, the live engine (quiescent, closed), and
// the live committed value per object.
func runCrashWorkload(t *testing.T, path string, crashAt int, seed int64) (int, *txn.Engine) {
	t.Helper()
	return runCrashWorkloadPolicy(t, path, crashAt, seed, txn.ReleaseEarlyTracked)
}

// runCrashWorkloadPolicy is runCrashWorkload with an explicit lock-release
// policy — the crash sweeps run under both disciplines.
func runCrashWorkloadPolicy(t *testing.T, path string, crashAt int, seed int64, pol txn.ReleasePolicy) (int, *txn.Engine) {
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
	e := txn.NewEngine(txn.Options{RecordHistory: true, Shards: 4, WAL: log, ReleasePolicy: pol})
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
	batches := int(e.WAL().Flushes())
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	// Close sequences any remaining staged records as one final batch.
	return max(batches, int(e.WAL().Flushes())), e
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
// implied by the durable record prefix, counting only the updates of
// transaction-granularity winners — transactions whose TxnCommitRec
// survived. Bank-account updates are pure deltas, so the winners-only sum
// is exact regardless of how losers interleaved. A transaction with a
// durable per-object CommitRec at obj but no TxnCommitRec counts for
// nothing: presumed abort makes it a loser at every object, which is
// precisely the transaction-atomicity property the sweep proves.
func expectedBalance(recs []wal.Record, obj history.ObjectID, initial int) int {
	winners := durableWinners(recs)
	bal := initial
	for _, r := range recs {
		if r.Obj != obj || r.Kind != wal.Update || !winners[r.Txn] {
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

// assertLosersTerminated checks that after Restart every transaction with
// updates at obj either durably committed (TxnCommitRec) or ends with an
// abort record at obj — no in-flight transaction survives restart, and no
// loser is left half-terminated.
func assertLosersTerminated(t *testing.T, recs []wal.Record, obj history.ObjectID, point int) {
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
			t.Errorf("crash point %d: %s left in flight at %s after restart", point, txid, obj)
		}
	}
}

// restartAll re-opens the durable log at path and restarts every banking
// object, returning the recovered values (encoded) and the post-restart
// records.
func restartAll(t *testing.T, path string, point int) (map[history.ObjectID]string, []wal.Record) {
	t.Helper()
	objs := make([]history.ObjectID, crashObjects)
	for i := range objs {
		objs[i] = crashObjID(i)
	}
	return restartAllOf(t, path, point, objs)
}

// restartAllOf re-opens the durable log at path and restarts each listed
// object against the banking machine, sharing one outcome scan
// (recovery.RestartAll).
func restartAllOf(t *testing.T, path string, point int, objs []history.ObjectID) (map[history.ObjectID]string, []wal.Record) {
	t.Helper()
	backend, err := wal.OpenFileBackend(path)
	if err != nil {
		t.Fatalf("crash point %d: reopen: %v", point, err)
	}
	log, err := wal.Open(wal.Config{Backend: backend})
	if err != nil {
		t.Fatalf("crash point %d: replay: %v", point, err)
	}
	stores, err := recovery.RestartAll(objs, func(history.ObjectID) adt.Machine { return crashMachine() }, log)
	if err != nil {
		t.Fatalf("crash point %d: %v", point, err)
	}
	vals := map[history.ObjectID]string{}
	for obj, st := range stores {
		vals[obj] = st.CommittedValue().Encode()
	}
	recs := log.Snapshot()
	if err := log.Close(); err != nil {
		t.Fatalf("crash point %d: close restarted log: %v", point, err)
	}
	return vals, recs
}

// TestCrashInjectionSweep crashes the flusher at every staged/flushed
// boundary of the banking workload and proves, per injection point, that
// Restart on the re-opened file backend (1) reproduces exactly the
// committed-winners state the durable prefix implies, (2) leaves no
// transaction in flight, and (3) is stable: a second crash-free
// reopen-and-restart reproduces the same state from the repaired log.
func TestCrashInjectionSweep(t *testing.T) {
	dir := t.TempDir()

	// Calibration: a crash-free run bounds the number of boundaries and
	// anchors the no-crash semantics (restart state == live state).
	calPath := filepath.Join(dir, "cal.wal")
	batches, e := runCrashWorkload(t, calPath, -1, 1)
	if batches < 5 {
		t.Fatalf("workload produced only %d batches; sweep needs more boundaries", batches)
	}
	verifyLiveHistory(t, e)
	vals, _ := restartAll(t, calPath, -1)
	for i := 0; i < crashObjects; i++ {
		obj := crashObjID(i)
		store, _ := e.Object(obj)
		if got, want := vals[obj], store.CommittedValue().Encode(); got != want {
			t.Fatalf("no-crash restart of %s: state %s, live state %s", obj, got, want)
		}
	}

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
	sweep(t, batches, 28, 28, func(t *testing.T, k int) {
		path := filepath.Join(dir, fmt.Sprintf("crash%02d.wal", k))
		_, e := runCrashWorkload(t, path, k, int64(100+k))
		if err := history.WellFormed(e.History()); err != nil {
			t.Fatalf("live history malformed: %v", err)
		}
		durable, err := wal.ReadFileLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if countInFlight(durable) > 0 {
			losersSeen++
		}
		commitSplits += countCommitSplit(durable)
		vals, recs := restartAll(t, path, k)
		for i := 0; i < crashObjects; i++ {
			obj := crashObjID(i)
			want := strconv.Itoa(expectedBalance(durable, obj, crashInitialBalance))
			if vals[obj] != want {
				t.Errorf("object %s: restarted state %s, oracle %s (durable prefix %d records)",
					obj, vals[obj], want, len(durable))
			}
			assertLosersTerminated(t, recs, obj, k)
		}
		// Stability: the restart appended its compensation and abort
		// records durably, so a second restart finds no losers and
		// reproduces the same state.
		again, _ := restartAll(t, path, k)
		for obj, v := range vals {
			if again[obj] != v {
				t.Errorf("object %s: second restart diverged: %s vs %s", obj, again[obj], v)
			}
		}
	})
	if losersSeen == 0 {
		t.Error("no injection point produced an in-flight loser; the sweep is not exercising undo")
	}
	t.Logf("sweep saw %d loser boundaries, %d commit-split transactions", losersSeen, commitSplits)
}

// TestCrashMidAbortCompensation builds, for every prefix of a loser's
// compensation walk, a durable file log that ends with partially durable
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
		path := filepath.Join(dir, fmt.Sprintf("abort%d.wal", clrs))
		backend, err := wal.CreateFileBackend(path)
		if err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(wal.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		u := recovery.NewUndoLog("X", crashMachine(), log)
		// A committed funder, so the loser's undo runs against real state.
		if _, err := u.Apply("W", adt.Deposit(3)); err != nil {
			t.Fatal(err)
		}
		if err := u.Commit("W"); err != nil {
			t.Fatal(err)
		}
		log.Append(wal.Record{Kind: wal.TxnCommitRec, Txn: "W"})
		if _, err := u.Apply("L", adt.Deposit(5)); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Apply("L", adt.Withdraw(2)); err != nil {
			t.Fatal(err)
		}
		log.Flush()
		// The abort walk, crashed after clrs compensation records: stage
		// exactly what live abort processing would have made durable.
		undoOps := []spec.Operation{adt.WithdrawOk(2), adt.DepositOk(5)}
		for i := 0; i < clrs; i++ {
			log.Append(wal.Record{Kind: wal.CompensationRec, Txn: "L", Obj: "X", Op: undoOps[i]})
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		want := strconv.Itoa(crashInitialBalance + 3)
		vals, recs := restartAllOf(t, path, clrs, []history.ObjectID{"X"})
		if vals["X"] != want {
			t.Errorf("%d durable CLRs: restarted state %s, want %s (loser fully undone)", clrs, vals["X"], want)
		}
		assertLosersTerminated(t, recs, "X", clrs)
		again, _ := restartAllOf(t, path, clrs, []history.ObjectID{"X"})
		if again["X"] != want {
			t.Errorf("%d durable CLRs: second restart diverged: %s vs %s", clrs, again["X"], want)
		}
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
		t.Fatalf("merged history not well-formed: %v", err)
	}
	sp := adt.BankAccount{InitialBalance: crashInitialBalance, MaxBalance: 1 << 20,
		Amounts: []int{1, 2, 3}}.Spec()
	rel := adt.DefaultBankAccount().NRBC()
	specs := atomicity.Specs{}
	for i := 0; i < crashObjects; i++ {
		obj := crashObjID(i)
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
