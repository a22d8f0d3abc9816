package txn

// Tests of the registry and the commit pipeline:
// registration mid-traffic never loses an object or tears a lookup,
// concurrent commits that release in whatever order the schedule gives
// them lose no deposit, both logging disciplines commit the same literal
// balances, and one commit's staged records are exactly the expected
// multiset, in one batch, with the commit decision last.

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/wal"
)

// TestCowRegistryRegisterMidTraffic hammers Register against lookups and
// commits under the race detector: a registration mid-traffic must never
// lose an object or tear a lookup, and traffic against already-registered
// objects must never observe a miss.
func TestCowRegistryRegisterMidTraffic(t *testing.T) {
	e := NewEngine(Options{})
	defer e.Close()
	ba := adt.DefaultBankAccount()
	const base, extra, workers = 4, 64, 4
	for i := 0; i < base; i++ {
		e.MustRegister(history.ObjectID(fmt.Sprintf("base%d", i)), ba, ba.NRBC(), UndoLogRecovery)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Traffic: commits against the base objects throughout.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := e.Begin()
				obj := history.ObjectID(fmt.Sprintf("base%d", (w+i)%base))
				if _, err := tx.Invoke(obj, adt.Deposit(1)); err != nil {
					t.Errorf("deposit on %s: %v", obj, err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers: lookups of base objects must always hit.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				obj := history.ObjectID(fmt.Sprintf("base%d", i%base))
				if _, ok := e.Object(obj); !ok {
					t.Errorf("lookup of registered %s missed", obj)
					return
				}
			}
		}()
	}
	// Registrar: grow the registry mid-traffic, exercising each new object
	// immediately.
	for i := 0; i < extra; i++ {
		obj := history.ObjectID(fmt.Sprintf("extra%d", i))
		if err := e.Register(obj, ba, ba.NRBC(), UndoLogRecovery); err != nil {
			t.Fatalf("register %s: %v", obj, err)
		}
		tx := e.Begin()
		if _, err := tx.Invoke(obj, adt.Deposit(2)); err != nil {
			t.Fatalf("deposit on fresh %s: %v", obj, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit on fresh %s: %v", obj, err)
		}
	}
	close(stop)
	wg.Wait()
	// No registration was lost.
	for i := 0; i < extra; i++ {
		obj := history.ObjectID(fmt.Sprintf("extra%d", i))
		store, ok := e.Object(obj)
		if !ok {
			t.Fatalf("object %s lost after concurrent registration", obj)
		}
		if got := store.CommittedValue().Encode(); got != "2" {
			t.Fatalf("object %s committed value = %s, want 2", obj, got)
		}
	}
}

// TestShardedCommitReleasesInTicketOrderEndToEnd commits two-object
// deposit transactions concurrently over a durable log. Committers
// release their locks in whatever order of their tickets the schedule
// gives them; the test checks that every commit got through (no lost
// wakeup), that every object's committed balance equals the deposits
// committed on it, and that the history is well-formed.
func TestShardedCommitReleasesInTicketOrderEndToEnd(t *testing.T) {
	e := NewEngine(Options{RecordHistory: true, WAL: backedWAL(t)})
	defer e.Close()
	ba := adt.DefaultBankAccount()
	const objects, rounds, workers = 6, 10, 6
	for i := 0; i < objects; i++ {
		e.MustRegister(history.ObjectID(fmt.Sprintf("o%d", i)), ba, ba.NRBC(), UndoLogRecovery)
	}
	// deposits[i] counts the committed deposits on object oi.
	var deposits [objects]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx := e.Begin()
				// Two objects per txn, so each commit releases a pair.
				a := history.ObjectID(fmt.Sprintf("o%d", (w+r)%objects))
				b := history.ObjectID(fmt.Sprintf("o%d", (w+r+1)%objects))
				if _, err := tx.Invoke(a, adt.Deposit(1)); err != nil {
					tx.Abort()
					continue // deadlock victim: fine, the release is what's under test
				}
				if _, err := tx.Invoke(b, adt.Deposit(1)); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				deposits[(w+r)%objects].Add(1)
				deposits[(w+r+1)%objects].Add(1)
			}
		}(w)
	}
	wg.Wait()
	for i := range deposits {
		obj := history.ObjectID(fmt.Sprintf("o%d", i))
		store, _ := e.Object(obj)
		want := strconv.FormatInt(deposits[i].Load(), 10)
		if got := store.CommittedValue().Encode(); got != want {
			t.Errorf("%s: committed balance %s, want %s (the committed deposits)", obj, got, want)
		}
	}
	if err := history.WellFormed(e.History()); err != nil {
		t.Fatalf("history not well-formed: %v", err)
	}
}

// TestReleaseDisciplineMatrix runs one deterministic workload — five
// three-object deposit transactions and an aborted deposit — under both
// logging disciplines and checks the committed balances against their
// literal values: 1+2+3+4+5 = 15 on every object, the aborted deposit
// leaving no trace.
func TestReleaseDisciplineMatrix(t *testing.T) {
	for _, disc := range []string{wal.DisciplineUndo, wal.DisciplineRedo} {
		t.Run(disc, func(t *testing.T) {
			e := NewEngine(Options{
				RecordHistory: true,
				LogDiscipline: disc,
			})
			defer e.Close()
			ba := adt.DefaultBankAccount()
			objs := []history.ObjectID{"p", "q", "r"}
			for _, o := range objs {
				e.MustRegister(o, ba, ba.NRBC(), UndoLogRecovery)
			}
			for round := 1; round <= 5; round++ {
				tx := e.Begin()
				for _, o := range objs {
					if _, err := tx.Invoke(o, adt.Deposit(round)); err != nil {
						t.Fatalf("deposit: %v", err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("commit: %v", err)
				}
			}
			ab := e.Begin()
			if _, err := ab.Invoke("p", adt.Deposit(3)); err != nil {
				t.Fatalf("deposit: %v", err)
			}
			if err := ab.Abort(); err != nil {
				t.Fatalf("abort: %v", err)
			}
			for _, o := range objs {
				store, _ := e.Object(o)
				if got := store.CommittedValue().Encode(); got != "15" {
					t.Errorf("%s: committed balance %s, want 15", o, got)
				}
			}
			if err := history.WellFormed(e.History()); err != nil {
				t.Fatalf("history not well-formed: %v", err)
			}
		})
	}
}

// TestBatchStagedCommitRecords pins the WAL record stream of one
// four-object undo-logged commit: an update and a per-object commit
// record for every participant, and the transaction-level commit record
// last — the property restart's presumed-abort protocol replays by.
// Commit takes the staging-queue lock twice: once for the one batch of
// every participant's commit record and once for the transaction-level
// record.
func TestBatchStagedCommitRecords(t *testing.T) {
	e := NewEngine(Options{RecordHistory: true, WAL: backedWAL(t)})
	defer e.Close()
	ba := adt.DefaultBankAccount()
	objs := []history.ObjectID{"p", "q", "r", "s"}
	for _, o := range objs {
		e.MustRegister(o, ba, ba.NRBC(), UndoLogRecovery)
	}
	tx := e.Begin()
	for _, o := range objs {
		if _, err := tx.Invoke(o, adt.Deposit(2)); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}
	acqs := e.WAL().Stats().StripeAcquisitions
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if d := e.WAL().Stats().StripeAcquisitions - acqs; d != 2 {
		t.Fatalf("Commit took the staging-queue lock %d times, want 2 (one batch + the transaction-level record)", d)
	}
	var recs []string
	for _, r := range walRecords(t, e.WAL()) {
		if r.Txn != tx.ID() {
			t.Fatalf("record %s@%s belongs to %q, want only %s's records", r.Kind, r.Obj, r.Txn, tx.ID())
		}
		recs = append(recs, fmt.Sprintf("%s@%s", r.Kind, r.Obj))
	}
	if len(recs) == 0 || recs[len(recs)-1] != "txn-commit@" {
		t.Fatalf("records %v: want the transaction-level commit record last", recs)
	}
	got := append([]string(nil), recs...)
	sort.Strings(got)
	want := []string{
		"commit@p", "commit@q", "commit@r", "commit@s",
		"txn-commit@",
		"update@p", "update@q", "update@r", "update@s",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record multiset %v, want %v", got, want)
	}
}
