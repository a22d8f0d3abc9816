package txn

// Tests of the copy-on-write registry and the sharded, commit-LSN-ordered
// commit pipeline: registration mid-traffic never loses an object or
// tears a lookup, the per-shard ordered-release protocol releases in
// commit-ticket order deterministically, every release policy × logging
// discipline commits the same literal balances, and one commit's staged
// records are exactly the expected multiset with the commit decision last.

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
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
	e := NewEngine(Options{Shards: 4})
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

// TestOrderedReleaseObservesTicketOrder drives the per-shard release
// protocol deterministically: with A resolved at a smaller ticket than B,
// B's release must block until A's completes, whatever the goroutine
// schedule — the happens-before chain is forced by the protocol itself,
// not by sleeps.
func TestOrderedReleaseObservesTicketOrder(t *testing.T) {
	e := NewEngine(Options{Shards: 1})
	defer e.Close()
	sh := e.shards[0]
	var mu sync.Mutex
	var order []string
	release := func(id history.TxnID) {
		sh.awaitReleaseTurn(id)
		mu.Lock()
		order = append(order, string(id))
		mu.Unlock()
		sh.finishRelease(id)
	}
	sh.enrollRelease("A")
	sh.enrollRelease("B")
	sh.resolveRelease("A", 10)
	sh.resolveRelease("B", 20)
	done := make(chan struct{})
	go func() {
		release("B") // must wait: A is resolved with a smaller ticket
		close(done)
	}()
	release("A") // never blocks: smallest resolved ticket, no unresolved peers
	<-done
	if len(order) != 2 || order[0] != "A" || order[1] != "B" {
		t.Fatalf("release order = %v, want [A B] (commit-LSN order)", order)
	}
}

// TestOrderedReleaseBlocksOnUnresolved: an enrolled committer whose
// ticket is not yet known blocks every release in the shard — its
// eventual ticket could be smaller than any resolved one's. Once it
// resolves larger, the smaller-ticketed committer goes first; the
// ordering assertions hold on every schedule.
func TestOrderedReleaseBlocksOnUnresolved(t *testing.T) {
	e := NewEngine(Options{Shards: 1})
	defer e.Close()
	sh := e.shards[0]
	var mu sync.Mutex
	var order []string
	release := func(id history.TxnID) {
		sh.awaitReleaseTurn(id)
		mu.Lock()
		order = append(order, string(id))
		mu.Unlock()
		sh.finishRelease(id)
	}
	sh.enrollRelease("A") // stays unresolved while B tries to release
	sh.enrollRelease("B")
	sh.resolveRelease("B", 5)
	done := make(chan struct{})
	go func() {
		release("B") // blocks: A unresolved, then A resolved larger → B first
		close(done)
	}()
	sh.resolveRelease("A", 10)
	<-done
	release("A") // blocks until B finished (B's ticket 5 < 10), then proceeds
	if len(order) != 2 || order[0] != "B" || order[1] != "A" {
		t.Fatalf("release order = %v, want [B A] (ticket order 5 < 10)", order)
	}
}

// TestShardedCommitReleasesInTicketOrderEndToEnd commits transactions on
// disjoint objects of one shard concurrently and checks, via the commit
// tickets each object publishes, that the per-shard release pipeline let
// every commit through (no lost wakeup, no stuck enrollment) and the
// final pending table is empty.
func TestShardedCommitReleasesInTicketOrderEndToEnd(t *testing.T) {
	e := NewEngine(Options{RecordHistory: true, Shards: 1})
	defer e.Close()
	ba := adt.DefaultBankAccount()
	const objects, rounds, workers = 6, 10, 6
	for i := 0; i < objects; i++ {
		e.MustRegister(history.ObjectID(fmt.Sprintf("o%d", i)), ba, ba.NRBC(), UndoLogRecovery)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx := e.Begin()
				// Two objects per txn so shard groups have width.
				a := history.ObjectID(fmt.Sprintf("o%d", (w+r)%objects))
				b := history.ObjectID(fmt.Sprintf("o%d", (w+r+1)%objects))
				if _, err := tx.Invoke(a, adt.Deposit(1)); err != nil {
					tx.Abort()
					continue // deadlock victim: fine, the protocol is what's under test
				}
				if _, err := tx.Invoke(b, adt.Deposit(1)); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every enrollment was cleaned up: no committer is still pending.
	sh := e.shards[0]
	sh.relMu.Lock()
	left := len(sh.pending)
	sh.relMu.Unlock()
	if left != 0 {
		t.Fatalf("%d enrollments left pending after quiescence", left)
	}
	if err := history.WellFormed(e.History()); err != nil {
		t.Fatalf("history not well-formed: %v", err)
	}
}

// TestReleaseDisciplineMatrix runs one deterministic workload — five
// three-object deposit transactions and an aborted deposit — under every
// release policy × logging discipline and checks the committed balances
// against their literal values: 1+2+3+4+5 = 15 on every object, the
// aborted deposit leaving no trace.
func TestReleaseDisciplineMatrix(t *testing.T) {
	for _, pol := range []ReleasePolicy{ReleaseEarlyTracked, ReleaseAfterAck} {
		for _, disc := range []string{wal.DisciplineUndo, wal.DisciplineRedo} {
			t.Run(fmt.Sprintf("%v/%s", pol, disc), func(t *testing.T) {
				e := NewEngine(Options{
					RecordHistory: true, Shards: 2,
					ReleasePolicy: pol, LogDiscipline: disc,
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
}

// TestBatchStagedCommitRecords pins the WAL record stream of one
// four-object undo-logged commit: an update and a per-object commit
// record for every participant, staged in per-shard batches, and the
// transaction-level commit record last — the property restart's
// presumed-abort protocol replays by.
func TestBatchStagedCommitRecords(t *testing.T) {
	e := NewEngine(Options{RecordHistory: true, Shards: 2})
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
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := e.WAL().Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var recs []string
	for _, r := range e.WAL().Snapshot() {
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
