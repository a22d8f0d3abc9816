package recovery

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/wal"
)

// backedLog opens a log over a fresh segmented backend in its own
// temporary directory: a durable log that reopen can hand to restart and
// durableRecords can read back. A log with no backend (wal.New) is a sink
// and keeps nothing.
func backedLog(t testing.TB) *wal.Log {
	t.Helper()
	dir := t.TempDir()
	b, err := wal.CreateSegmentedBackend(dir, wal.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return openLog(t, dir, b)
}

// logDirs maps each log backedLog or reopen opened to its directory.
var logDirs sync.Map

// openLog opens a log over b, the backend in dir, and closes it when the
// test ends.
func openLog(t testing.TB, dir string, b wal.Backend) *wal.Log {
	t.Helper()
	log, err := wal.Open(wal.Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	logDirs.Store(log, dir)
	t.Cleanup(func() { log.Close() })
	return log
}

// closeDir closes log, which backedLog or reopen opened, and returns its
// directory.
func closeDir(t testing.TB, log *wal.Log) string {
	t.Helper()
	dir, ok := logDirs.Load(log)
	if !ok {
		t.Fatal("log has no directory: open it with backedLog")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir.(string)
}

// reopen is the crash's other side: it closes log and reopens its
// directory, whose replay restart takes.
func reopen(t testing.TB, log *wal.Log) *wal.Log {
	t.Helper()
	dir := closeDir(t, log)
	b, err := wal.OpenSegmentedBackend(dir, wal.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return openLog(t, dir, b)
}

// durableRecords closes log and returns the records its directory holds.
func durableRecords(t testing.TB, log *wal.Log) []wal.Record {
	t.Helper()
	recs, err := reopen(t, log).TakeReplay()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// logTxnCommit stages the transaction-level commit record the way
// txn.Commit does after the per-object commit sweep. Restart is
// presumed-abort: without this record a transaction is a loser no matter
// how many per-object CommitRecs reached the log.
func logTxnCommit(t testing.TB, log *wal.Log, txn history.TxnID) {
	t.Helper()
	AppendDurable(t, log, wal.Record{Kind: wal.TxnCommitRec, Txn: txn})
}

// restart is the crash restart every test here runs: it reopens log's
// directory and runs a full-log RestartAllWithConfig of objs, each over a
// fresh machine from mk. It returns the stores and the reopened log they
// own.
func restart(t *testing.T, log *wal.Log, mk func() adt.Machine, objs ...history.ObjectID) (map[history.ObjectID]*UndoLog, *wal.Log) {
	t.Helper()
	log = reopen(t, log)
	stores, _, err := RestartAllWithConfig(objs,
		func(history.ObjectID) adt.Machine { return mk() }, log, nil, RestartConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return stores, log
}

// TestRestartCleanLog: restart after only committed work reproduces the
// committed state.
func TestRestartCleanLog(t *testing.T) {
	log := backedLog(t)
	u := NewUndoLog("BA", adt.DefaultBankAccount().Machine(), log)
	mustApplyR(t, u, "A", adt.Deposit(5))
	mustApplyR(t, u, "A", adt.Withdraw(2))
	if err := u.Commit("A"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "A")
	// Crash: discard u; rebuild from the log.
	rs, _ := restart(t, log, adt.DefaultBankAccount().Machine, "BA")
	if got := rs["BA"].CommittedValue().Encode(); got != "3" {
		t.Fatalf("restart state = %s, want 3", got)
	}
}

// TestRestartUndoesLoser: an in-flight transaction at the crash is rolled
// back during restart, preserving concurrent committed work.
func TestRestartUndoesLoser(t *testing.T) {
	log := backedLog(t)
	u := NewUndoLog("BA", adt.DefaultBankAccount().Machine(), log)
	mustApplyR(t, u, "A", adt.Deposit(5))
	if err := u.Commit("A"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "A")
	mustApplyR(t, u, "B", adt.Deposit(3)) // loser: never commits
	mustApplyR(t, u, "C", adt.Deposit(2))
	if err := u.Commit("C"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "C")

	rs, log := restart(t, log, adt.DefaultBankAccount().Machine, "BA")
	r := rs["BA"]
	if got := r.CommittedValue().Encode(); got != "7" {
		t.Fatalf("restart state = %s, want 7 (5 + 2, loser's 3 undone)", got)
	}
	// The restarted store accepts new work.
	mustApplyR(t, r, "D", adt.Deposit(1))
	if err := r.Commit("D"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "D")
	if got := r.CommittedValue().Encode(); got != "8" {
		t.Fatalf("post-restart state = %s, want 8", got)
	}
	// Restart logged B's compensation and abort records, and D's records
	// follow them.
	recs := durableRecords(t, log)
	i := len(recs) - 1
	for recs[i].Txn == "D" {
		i--
	}
	if recs[i].Kind != wal.AbortRec || recs[i].Txn != "B" || recs[i-1].Kind != wal.CompensationRec {
		t.Fatalf("restart's tail should end with B's compensation and abort records, got %v", recs[i-1:i+1])
	}
}

// TestRestartPresumedAbortHalfCommitted is the transaction-atomic restart
// property itself: a transaction whose per-object CommitRecs reached the
// log at BOTH objects — but whose transaction-level commit record did not —
// is presumed aborted and undone everywhere. Before the TxnCommitRec
// existed, this durable prefix (the crash falling after the per-object
// commit sweep but before the commit point) recovered half-committed.
func TestRestartPresumedAbortHalfCommitted(t *testing.T) {
	log := backedLog(t)
	m := adt.DefaultBankAccount().Machine()
	ux := NewUndoLog("X", m, log)
	uy := NewUndoLog("Y", m, log)
	// Fund both accounts with a committed transaction.
	mustApplyR(t, ux, "F", adt.Deposit(10))
	mustApplyR(t, uy, "F", adt.Deposit(10))
	if err := ux.Commit("F"); err != nil {
		t.Fatal(err)
	}
	if err := uy.Commit("F"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "F")
	// A transfer X→Y that got through both per-object commits, but crashed
	// before its transaction-level commit record was staged.
	mustApplyR(t, ux, "T", adt.Withdraw(4))
	mustApplyR(t, uy, "T", adt.Deposit(4))
	if err := ux.Commit("T"); err != nil {
		t.Fatal(err)
	}
	if err := uy.Commit("T"); err != nil {
		t.Fatal(err)
	}
	// No logTxnCommit(t, log, "T"): the crash point.

	rs, log := restart(t, log, adt.DefaultBankAccount().Machine, "X", "Y")
	rx, ry := rs["X"], rs["Y"]
	if got := rx.CommittedValue().Encode(); got != "10" {
		t.Fatalf("X after restart = %s, want 10 (transfer presumed aborted)", got)
	}
	if got := ry.CommittedValue().Encode(); got != "10" {
		t.Fatalf("Y after restart = %s, want 10 (transfer presumed aborted)", got)
	}
	// A second restart is a fixed point: T is now terminated by abort
	// records, and the state does not move.
	rs2, _ := restart(t, log, adt.DefaultBankAccount().Machine, "X")
	if got := rs2["X"].CommittedValue().Encode(); got != "10" {
		t.Fatalf("X after second restart = %s, want 10", got)
	}
}

// TestRestartWinnerSurvivesWithCommitHints: with the TxnCommitRec durable,
// the per-object CommitRecs act as redo hints and the transaction's
// effects survive at every object.
func TestRestartWinnerSurvivesWithCommitHints(t *testing.T) {
	log := backedLog(t)
	m := adt.DefaultBankAccount().Machine()
	ux := NewUndoLog("X", m, log)
	uy := NewUndoLog("Y", m, log)
	mustApplyR(t, ux, "T", adt.Deposit(6))
	mustApplyR(t, uy, "T", adt.Deposit(7))
	if err := ux.Commit("T"); err != nil {
		t.Fatal(err)
	}
	if err := uy.Commit("T"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "T")
	rs, _ := restart(t, log, adt.DefaultBankAccount().Machine, "X", "Y")
	rx, ry := rs["X"], rs["Y"]
	if rx.CommittedValue().Encode() != "6" || ry.CommittedValue().Encode() != "7" {
		t.Fatalf("winner states = %s, %s; want 6, 7",
			rx.CommittedValue().Encode(), ry.CommittedValue().Encode())
	}
}

// TestRestartAfterPartialAbort: a crash in the middle of abort processing
// (some compensation records written) resumes the undo correctly.
func TestRestartAfterPartialAbort(t *testing.T) {
	log := backedLog(t)
	m := adt.DefaultBankAccount().Machine()
	u := NewUndoLog("BA", m, log)
	mustApplyR(t, u, "A", adt.Deposit(5))
	mustApplyR(t, u, "A", adt.Deposit(3))
	// Simulate a partial abort: write the CLR for the newest update only,
	// as live abort would before crashing mid-walk.
	AppendDurable(t, log, wal.Record{Kind: wal.CompensationRec, Txn: "A", Obj: "BA", Op: adt.DepositOk(3)})

	rs, _ := restart(t, log, adt.DefaultBankAccount().Machine, "BA")
	if got := rs["BA"].CommittedValue().Encode(); got != "0" {
		t.Fatalf("restart state = %s, want 0 (both deposits undone, one via CLR)", got)
	}
}

// TestRestartIdempotent: restarting twice from the same log yields the same
// state — the second restart sees the losers already aborted.
func TestRestartIdempotent(t *testing.T) {
	log := backedLog(t)
	u := NewUndoLog("BA", adt.DefaultBankAccount().Machine(), log)
	mustApplyR(t, u, "A", adt.Deposit(5))
	if err := u.Commit("A"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "A")
	mustApplyR(t, u, "B", adt.Withdraw(2)) // loser

	rs1, log := restart(t, log, adt.DefaultBankAccount().Machine, "BA")
	rs2, _ := restart(t, log, adt.DefaultBankAccount().Machine, "BA")
	r1, r2 := rs1["BA"], rs2["BA"]
	if r1.CommittedValue().Encode() != r2.CommittedValue().Encode() {
		t.Fatalf("restart not idempotent: %s vs %s",
			r1.CommittedValue().Encode(), r2.CommittedValue().Encode())
	}
	if got := r2.CommittedValue().Encode(); got != "5" {
		t.Fatalf("state = %s, want 5", got)
	}
}

// TestRestartBeforeImageMachine: restart replays before-image undo tokens
// from the log for machines that need them (KV store).
func TestRestartBeforeImageMachine(t *testing.T) {
	log := backedLog(t)
	u := NewUndoLog("KV", adt.DefaultKVStore().Machine(), log)
	mustApplyR(t, u, "A", adt.Put("x", "1"))
	if err := u.Commit("A"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "A")
	mustApplyR(t, u, "B", adt.Put("x", "2")) // loser overwrites x

	rs, _ := restart(t, log, adt.DefaultKVStore().Machine, "KV")
	if got := rs["KV"].CommittedValue().Encode(); got != "<x=1>" {
		t.Fatalf("restart state = %s, want <x=1>", got)
	}
}

// TestRestartMultiObjectLog: the shared log interleaves records of several
// objects; restart filters each object's records correctly, with one
// winner scan (pass 1) shared by every object.
func TestRestartMultiObjectLog(t *testing.T) {
	log := backedLog(t)
	u1 := NewUndoLog("X", adt.DefaultBankAccount().Machine(), log)
	u2 := NewUndoLog("Y", adt.DefaultBankAccount().Machine(), log)
	mustApplyR(t, u1, "A", adt.Deposit(5))
	mustApplyR(t, u2, "A", adt.Deposit(7))
	if err := u1.Commit("A"); err != nil {
		t.Fatal(err)
	}
	if err := u2.Commit("A"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "A")
	rs, _ := restart(t, log, adt.DefaultBankAccount().Machine, "X", "Y")
	r1, r2 := rs["X"], rs["Y"]
	if r1.CommittedValue().Encode() != "5" || r2.CommittedValue().Encode() != "7" {
		t.Fatalf("restart states = %s, %s", r1.CommittedValue().Encode(), r2.CommittedValue().Encode())
	}
}

func mustApplyR(t *testing.T, u *UndoLog, txn history.TxnID, inv spec.Invocation) {
	t.Helper()
	if _, err := PeekApply(u, txn, inv); err != nil {
		t.Fatal(err)
	}
}

// errDevice is what switchBackend fails with.
var errDevice = errors.New("device died")

// switchBackend is a segmented backend whose Write or Sync fails once
// failWrite or failSync is set: a device that dies between the crash and
// the restart's undo tail.
type switchBackend struct {
	*wal.SegmentedBackend
	failWrite, failSync atomic.Bool
}

func (b *switchBackend) Write(recs []wal.Record, frame []byte) error {
	if b.failWrite.Load() {
		return errDevice
	}
	return b.SegmentedBackend.Write(recs, frame)
}

func (b *switchBackend) Sync() error {
	if b.failSync.Load() {
		return errDevice
	}
	return b.SegmentedBackend.Sync()
}

// TestRestartTailOneRound: restart stages its whole undo tail — here two
// compensations and an abort record — as one batch that one flush round
// makes durable, and a device that cannot write or sync the tail fails the
// restart instead of returning stores whose undo was never logged.
func TestRestartTailOneRound(t *testing.T) {
	for _, fail := range []string{"none", "write", "sync"} {
		t.Run(fail, func(t *testing.T) {
			log := backedLog(t)
			u := NewUndoLog("BA", adt.DefaultBankAccount().Machine(), log)
			mustApplyR(t, u, "W", adt.Deposit(5))
			if err := u.Commit("W"); err != nil {
				t.Fatal(err)
			}
			logTxnCommit(t, log, "W")
			mustApplyR(t, u, "L", adt.Deposit(3))
			mustApplyR(t, u, "L", adt.Withdraw(2))
			if err := log.Flush(); err != nil {
				t.Fatal(err)
			}
			dir := closeDir(t, log)
			sb, err := wal.OpenSegmentedBackend(dir, wal.SegmentConfig{})
			if err != nil {
				t.Fatal(err)
			}
			b := &switchBackend{SegmentedBackend: sb}
			log = openLog(t, dir, b)
			b.failWrite.Store(fail == "write")
			b.failSync.Store(fail == "sync")
			flushes := log.Stats().Flushes
			stores, _, err := RestartAllWithConfig([]history.ObjectID{"BA"},
				func(history.ObjectID) adt.Machine { return adt.DefaultBankAccount().Machine() },
				log, nil, RestartConfig{})
			if fail != "none" {
				if !errors.Is(err, errDevice) || stores != nil {
					t.Fatalf("restart over a failing %s = (%v, %v), want no stores and the device error", fail, stores, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := log.Stats().Flushes - flushes; got != 1 {
				t.Fatalf("restart ran %d flush rounds, want 1 for its whole undo tail", got)
			}
			recs := durableRecords(t, log)
			tail := recs[len(recs)-3:]
			if tail[0].Kind != wal.CompensationRec || tail[1].Kind != wal.CompensationRec || tail[2].Kind != wal.AbortRec {
				t.Fatalf("log ends %v, want two compensations and an abort record", tail)
			}
			if got := stores["BA"].CommittedValue().Encode(); got != "5" {
				t.Fatalf("restart state = %s, want 5 (the loser undone)", got)
			}
		})
	}
}

// TestRestartRefusesLiveOrTakenLog: restart reads the records a reopened
// log replayed, once. A log that has appended since Open — the live log
// that wrote them, or a reopened one that took more — is refused, since
// its newest records may never have reached the backend; so is a second
// restart of one reopened log. A fresh reopen restarts as ever.
func TestRestartRefusesLiveOrTakenLog(t *testing.T) {
	machineFor := func(history.ObjectID) adt.Machine { return adt.DefaultBankAccount().Machine() }
	objs := []history.ObjectID{"BA"}
	log := backedLog(t)
	u := NewUndoLog("BA", adt.DefaultBankAccount().Machine(), log)
	mustApplyR(t, u, "A", adt.Deposit(5))
	if err := u.Commit("A"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(t, log, "A")
	mustApplyR(t, u, "B", adt.Deposit(3)) // loser
	if _, _, err := RestartAllWithConfig(objs, machineFor, log, nil, RestartConfig{}); err == nil ||
		!strings.Contains(err.Error(), "appended") {
		t.Fatalf("restart of the live log = %v, want the appended-since-Open refusal", err)
	}

	relog := reopen(t, log)
	if _, err := relog.AppendAsync(wal.Record{Kind: wal.Update, Txn: "C", Obj: "BA", Op: adt.DepositOk(1)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RestartAllWithConfig(objs, machineFor, relog, nil, RestartConfig{}); err == nil ||
		!strings.Contains(err.Error(), "appended") {
		t.Fatalf("restart of a reopened log that appended = %v, want the appended-since-Open refusal", err)
	}

	// Close made C's staged update durable: a fresh reopen replays A's
	// records and both losers' updates, restarts once, and refuses a
	// second time.
	relog = reopen(t, relog)
	stores, stats, err := RestartAllWithConfig(objs, machineFor, relog, nil, RestartConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := stores["BA"].CommittedValue().Encode(); got != "5" {
		t.Fatalf("restart state = %s, want 5 (B and C undone)", got)
	}
	if stats.LogRecords != 5 || stats.Undone != 2 {
		t.Fatalf("restart read %d records and undid %d, want 5 and 2", stats.LogRecords, stats.Undone)
	}
	if _, _, err := RestartAllWithConfig(objs, machineFor, relog, nil, RestartConfig{}); err == nil ||
		!strings.Contains(err.Error(), "already taken") {
		t.Fatalf("second restart of one reopened log = %v, want the already-taken refusal", err)
	}
}

// TestRestartRefusesSinkLog: a log with no backend retains no records, so
// restarting from it would "restore" every object to its initial state.
// Restart refuses it instead — under either discipline marker.
func TestRestartRefusesSinkLog(t *testing.T) {
	machineFor := func(history.ObjectID) adt.Machine { return adt.DefaultBankAccount().Machine() }
	objs := []history.ObjectID{"BA"}
	for _, discipline := range []string{wal.DisciplineUndo, wal.DisciplineRedo} {
		t.Run(discipline, func(t *testing.T) {
			log := wal.New()
			if discipline == wal.DisciplineRedo {
				AppendDurable(t, log, wal.DisciplineMarker(wal.DisciplineRedo))
			}
			u := NewUndoLog("BA", adt.DefaultBankAccount().Machine(), log)
			mustApplyR(t, u, "A", adt.Deposit(5))
			if err := u.Commit("A"); err != nil {
				t.Fatal(err)
			}
			logTxnCommit(t, log, "A")
			if _, _, err := RestartAllWithConfig(objs, machineFor, log, nil, RestartConfig{}); err == nil ||
				!strings.Contains(err.Error(), "no backend") {
				t.Fatalf("RestartAllWithConfig over a sink = %v, want the no-backend error", err)
			}
		})
	}
}

// BenchmarkRestart restarts one fixed log — 8,192 single-deposit winners,
// three records each — spread over 64, 512 and 4,096 objects, on one
// worker. Pass 2 visits each object's own records only, so the cost per
// record must not grow with the object count. Each iteration restarts a
// fresh reopen of the log; the reopen is not timed.
func BenchmarkRestart(b *testing.B) {
	const txns = 8192
	for _, objects := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("objects=%d", objects), func(b *testing.B) {
			log := backedLog(b)
			objs := make([]history.ObjectID, objects)
			stores := make([]*UndoLog, objects)
			for i := range objs {
				objs[i] = history.ObjectID(fmt.Sprintf("acct%04d", i))
				stores[i] = NewUndoLog(objs[i], adt.DefaultBankAccount().Machine(), log)
			}
			for i := 0; i < txns; i++ {
				txn := history.TxnID(fmt.Sprintf("T%05d", i))
				u := stores[i%objects]
				if _, err := PeekApply(u, txn, adt.Deposit(1)); err != nil {
					b.Fatal(err)
				}
				if err := u.Commit(txn); err != nil {
					b.Fatal(err)
				}
				if _, err := log.AppendAsync(wal.Record{Kind: wal.TxnCommitRec, Txn: txn}); err != nil {
					b.Fatal(err)
				}
			}
			records := log.Records()
			machineFor := func(history.ObjectID) adt.Machine { return adt.DefaultBankAccount().Machine() }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				log = reopen(b, log)
				b.StartTimer()
				if _, _, err := RestartAllWithConfig(objs, machineFor, log, nil, RestartConfig{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}
