package txn

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/checkpoint"
	"repro/internal/spec"
	"repro/internal/wal"
)

// backedWAL opens a log over a fresh segmented backend in its own
// temporary directory, for the engine tests that read the durable log back
// (walRecords) or restart from it (reopenWAL): an engine's default log
// (wal.New) is a sink and keeps no records.
func backedWAL(t testing.TB) *wal.Log {
	t.Helper()
	dir := t.TempDir()
	b, err := wal.CreateSegmentedBackend(dir, wal.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(wal.Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	walDirs.Store(log, dir)
	return log
}

// walDirs maps each log backedWAL opened to its directory.
var walDirs sync.Map

// closeWAL closes log, which backedWAL opened, and returns its directory.
func closeWAL(t testing.TB, log *wal.Log) string {
	t.Helper()
	dir, ok := walDirs.Load(log)
	if !ok {
		t.Fatal("log has no directory: open it with backedWAL")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dir.(string)
}

// reopenWAL closes log, which backedWAL opened, and reopens its directory:
// the log a restart after a crash reads. The test's end closes it.
func reopenWAL(t testing.TB, log *wal.Log) *wal.Log {
	t.Helper()
	b, err := wal.OpenSegmentedBackend(closeWAL(t, log), wal.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	relog, err := wal.Open(wal.Config{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relog.Close() })
	return relog
}

// walRecords closes log, which backedWAL opened, and returns the records
// its directory holds.
func walRecords(t testing.TB, log *wal.Log) []wal.Record {
	t.Helper()
	b, err := wal.OpenSegmentedBackend(closeWAL(t, log), wal.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := b.Replay()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// newTransferEngine builds an in-memory engine with two accounts, A and
// B: undo-logged under NRBC locking (UIP), or with intentions lists under
// NFC locking (DU).
func newTransferEngine(kind RecoveryKind) *Engine {
	e := NewEngine(Options{})
	ba := adt.BankAccount{InitialBalance: 1 << 20, MaxBalance: 1 << 30, Amounts: []int{1}}
	rel := ba.NRBC()
	if kind == IntentionsRecovery {
		rel = ba.NFC()
	}
	e.MustRegister("A", ba, rel, kind)
	e.MustRegister("B", ba, rel, kind)
	return e
}

// The transfer's invocations are built once, as bench/ builds its
// scripts: building one formats its argument through fmt, whose printer
// pool drops items under -race, so a per-call build would count allocations
// that are neither the engine's nor stable.
var withdraw1, deposit1 = adt.Withdraw(1), adt.Deposit(1)

// transfer moves one unit from A to B in one transaction.
func transfer(t testing.TB, e *Engine) {
	tx := e.Begin()
	if _, err := tx.Invoke("A", withdraw1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Invoke("B", deposit1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestInMemoryEngineKeepsNoLogHistory: an in-memory engine appends five
// records per two-object transfer (two updates, two per-object commit
// records, the transaction-level commit record) and retains none of them
// — without a checkpoint, a retaining log would hold all 5·N.
func TestInMemoryEngineKeepsNoLogHistory(t *testing.T) {
	const n = 10_000
	e := newTransferEngine(UndoLogRecovery)
	defer e.Close()
	for i := 0; i < n; i++ {
		transfer(t, e)
	}
	s := e.WAL().Stats()
	if s.Records != 0 || s.Bytes != 0 {
		t.Fatalf("in-memory log retains %d records (%d bytes) after %d commits, want 0", s.Records, s.Bytes, n)
	}
	if s.FlushedRecords != 5*n {
		t.Fatalf("in-memory log counted %d appended records, want %d", s.FlushedRecords, 5*n)
	}
}

// TestInMemoryTransferAllocs pins the allocation count of one in-memory
// undo-logged two-object transfer: Begin, two Invokes, Commit. The count
// is the same with and without -race.
func TestInMemoryTransferAllocs(t *testing.T) {
	checkTransferAllocs(t, UndoLogRecovery, 2)
}

// TestInMemoryTransferAllocsDU is TestInMemoryTransferAllocs's
// deferred-update twin: intentions lists under NFC locking.
func TestInMemoryTransferAllocsDU(t *testing.T) {
	checkTransferAllocs(t, IntentionsRecovery, 2)
}

func checkTransferAllocs(t *testing.T, kind RecoveryKind, pinned float64) {
	t.Helper()
	e := newTransferEngine(kind)
	defer e.Close()
	allocs := testing.AllocsPerRun(200, func() { transfer(t, e) })
	if allocs > pinned {
		t.Fatalf("one in-memory %v transfer: %v allocs, want at most %v", kind, allocs, pinned)
	}
}

// TestCheckpointRefusesSinkLog: an engine whose log has no backend retains
// no records to checkpoint against, and Checkpoint says so at once instead
// of failing late on a marker it cannot find.
func TestCheckpointRefusesSinkLog(t *testing.T) {
	store, err := checkpoint.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Checkpoint: &CheckpointOptions{Store: store}})
	defer e.Close()
	ba := adt.DefaultBankAccount()
	e.MustRegister("A", ba, ba.NRBC(), UndoLogRecovery)
	snap, err := e.Checkpoint()
	if err == nil || !strings.Contains(err.Error(), "no backend") {
		t.Fatalf("Checkpoint over a sink log = (%v, %v), want the no-backend error", snap, err)
	}
	if got, err := store.Latest(); got != nil || err != nil {
		t.Fatalf("store holds %v (%v) after a refused checkpoint", got, err)
	}
	if got := e.WAL().FlushedRecords(); got != 0 {
		t.Fatalf("refused checkpoint appended %d records", got)
	}
}

// countingMachine counts the machine's Peeks and Applies.
type countingMachine struct {
	adt.Machine
	peeks, applies *int
}

func (m countingMachine) Peek(v adt.Value, inv spec.Invocation) (spec.Response, error) {
	*m.peeks++
	return m.Machine.Peek(v, inv)
}

func (m countingMachine) Apply(v adt.Value, op spec.Operation) error {
	*m.applies++
	return m.Machine.Apply(v, op)
}

// countingAccount is a bank account whose runtime machine counts its
// steps.
type countingAccount struct {
	adt.BankAccount
	peeks, applies *int
}

func (a countingAccount) Machine() adt.Machine {
	return countingMachine{Machine: a.BankAccount.Machine(), peeks: a.peeks, applies: a.applies}
}

// TestInvokeRunsMachineOnce: an uncontended Invoke is one machine Peek,
// which gives the response the lock is checked against, plus one Apply
// of that operation in place — the response is never computed twice.
// Under DU a transaction's first operation on an object peeks against the
// base and has no workspace to apply to; its Apply runs when the second
// operation builds the workspace, so after every Invoke but the first the
// transaction's Peeks and Applies both equal its Invokes.
func TestInvokeRunsMachineOnce(t *testing.T) {
	for _, kind := range []RecoveryKind{UndoLogRecovery, IntentionsRecovery} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			var peeks, applies int
			ba := countingAccount{BankAccount: adt.DefaultBankAccount(), peeks: &peeks, applies: &applies}
			rel := ba.NRBC()
			if kind == IntentionsRecovery {
				rel = ba.NFC()
			}
			e := NewEngine(Options{})
			defer e.Close()
			e.MustRegister("A", ba, rel, kind)
			tx := e.Begin()
			for i, inv := range []spec.Invocation{deposit1, withdraw1, adt.Balance()} {
				if _, err := tx.Invoke("A", inv); err != nil {
					t.Fatal(err)
				}
				wantApplies := i + 1
				if kind == IntentionsRecovery && i == 0 {
					wantApplies = 0
				}
				if peeks != i+1 || applies != wantApplies {
					t.Fatalf("after Invoke %d (%s): %d Peeks and %d Applies, want %d and %d",
						i, inv, peeks, applies, i+1, wantApplies)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
