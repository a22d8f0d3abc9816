package recovery

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
)

// backedLog opens a synchronous log over a zero-latency backend: a log
// that sequences and retains its records, as restart needs. A log with no
// backend (wal.New) is a sink and retains nothing.
func backedLog(t testing.TB) *wal.Log {
	t.Helper()
	log, err := wal.Open(wal.Config{Backend: waltest.NewLatencyBackend(0)})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// logTxnCommit stages the transaction-level commit record the way
// txn.Commit does after the per-object commit sweep. Restart is
// presumed-abort: without this record a transaction is a loser no matter
// how many per-object CommitRecs reached the log.
func logTxnCommit(log *wal.Log, txn history.TxnID) {
	log.Append(wal.Record{Kind: wal.TxnCommitRec, Txn: txn})
}

// restart is the crash restart every test here runs: a full-log
// RestartAllWithConfig of objs, each over a fresh machine from mk.
func restart(t *testing.T, log *wal.Log, mk func() adt.Machine, objs ...history.ObjectID) map[history.ObjectID]*UndoLog {
	t.Helper()
	stores, _, err := RestartAllWithConfig(objs,
		func(history.ObjectID) adt.Machine { return mk() }, log, nil, RestartConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return stores
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
	logTxnCommit(log, "A")
	// Crash: discard u; rebuild from the log.
	r := restart(t, log, adt.DefaultBankAccount().Machine, "BA")["BA"]
	if got := r.CommittedValue().Encode(); got != "3" {
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
	logTxnCommit(log, "A")
	mustApplyR(t, u, "B", adt.Deposit(3)) // loser: never commits
	mustApplyR(t, u, "C", adt.Deposit(2))
	if err := u.Commit("C"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(log, "C")

	r := restart(t, log, adt.DefaultBankAccount().Machine, "BA")["BA"]
	if got := r.CommittedValue().Encode(); got != "7" {
		t.Fatalf("restart state = %s, want 7 (5 + 2, loser's 3 undone)", got)
	}
	// The log now ends with B's compensation and abort records.
	recs := log.Snapshot()
	last := recs[len(recs)-1]
	if last.Kind != wal.AbortRec || last.Txn != "B" {
		t.Fatalf("log should end with B's abort record, got %v", last)
	}
	// The restarted store accepts new work.
	mustApplyR(t, r, "D", adt.Deposit(1))
	if err := r.Commit("D"); err != nil {
		t.Fatal(err)
	}
	logTxnCommit(log, "D")
	if got := r.CommittedValue().Encode(); got != "8" {
		t.Fatalf("post-restart state = %s, want 8", got)
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
	logTxnCommit(log, "F")
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
	// No logTxnCommit(log, "T"): the crash point.

	rs := restart(t, log, adt.DefaultBankAccount().Machine, "X", "Y")
	rx, ry := rs["X"], rs["Y"]
	if got := rx.CommittedValue().Encode(); got != "10" {
		t.Fatalf("X after restart = %s, want 10 (transfer presumed aborted)", got)
	}
	if got := ry.CommittedValue().Encode(); got != "10" {
		t.Fatalf("Y after restart = %s, want 10 (transfer presumed aborted)", got)
	}
	// A second restart is a fixed point: T is now terminated by abort
	// records, and the state does not move.
	rx2 := restart(t, log, adt.DefaultBankAccount().Machine, "X")["X"]
	if got := rx2.CommittedValue().Encode(); got != "10" {
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
	logTxnCommit(log, "T")
	rs := restart(t, log, adt.DefaultBankAccount().Machine, "X", "Y")
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
	log.Append(wal.Record{Kind: wal.CompensationRec, Txn: "A", Obj: "BA", Op: adt.DepositOk(3)})

	r := restart(t, log, adt.DefaultBankAccount().Machine, "BA")["BA"]
	if got := r.CommittedValue().Encode(); got != "0" {
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
	logTxnCommit(log, "A")
	mustApplyR(t, u, "B", adt.Withdraw(2)) // loser

	r1 := restart(t, log, adt.DefaultBankAccount().Machine, "BA")["BA"]
	r2 := restart(t, log, adt.DefaultBankAccount().Machine, "BA")["BA"]
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
	logTxnCommit(log, "A")
	mustApplyR(t, u, "B", adt.Put("x", "2")) // loser overwrites x

	r := restart(t, log, adt.DefaultKVStore().Machine, "KV")["KV"]
	if got := r.CommittedValue().Encode(); got != "<x=1>" {
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
	logTxnCommit(log, "A")
	rs := restart(t, log, adt.DefaultBankAccount().Machine, "X", "Y")
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
				log.Append(wal.DisciplineMarker(wal.DisciplineRedo))
			}
			u := NewUndoLog("BA", adt.DefaultBankAccount().Machine(), log)
			mustApplyR(t, u, "A", adt.Deposit(5))
			if err := u.Commit("A"); err != nil {
				t.Fatal(err)
			}
			logTxnCommit(log, "A")
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
// record must not grow with the object count.
func BenchmarkRestart(b *testing.B) {
	const txns = 8192
	for _, objects := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("objects=%d", objects), func(b *testing.B) {
			log := backedLog(b)
			defer log.Close()
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
				logTxnCommit(log, txn)
			}
			records := log.Records()
			machineFor := func(history.ObjectID) adt.Machine { return adt.DefaultBankAccount().Machine() }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := RestartAllWithConfig(objs, machineFor, log, nil, RestartConfig{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}
