package locking

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/spec"
)

func nrbcTable() *Table {
	return NewTable(adt.DefaultBankAccount().NRBC())
}

func TestTableGrantAndConflict(t *testing.T) {
	tab := nrbcTable()
	tab.Add("A", adt.DepositOk(5))
	// Requested withdrawal conflicts with held deposit (asymmetric NRBC).
	holders := tab.Conflicting(nil, adt.WithdrawOk(3), "B")
	if len(holders) != 1 || holders[0] != "A" {
		t.Fatalf("holders = %v, want [A]", holders)
	}
	// Requested deposit does not conflict with a held withdrawal.
	tab2 := nrbcTable()
	tab2.Add("A", adt.WithdrawOk(3))
	if holders := tab2.Conflicting(nil, adt.DepositOk(5), "B"); len(holders) != 0 {
		t.Fatalf("deposit should not conflict with held withdrawal: %v", holders)
	}
}

// TestTableConflictingAllocs pins the cost of a lock request: with the
// caller's buffer reused, as the engine reuses its transaction's, neither
// the uncontended request — the engine's hot path — nor one conflicting
// holder allocates (the sort takes no reflection-built swapper).
func TestTableConflictingAllocs(t *testing.T) {
	tab := nrbcTable()
	tab.Add("A", adt.WithdrawOk(3))
	tab.Add("B", adt.DepositOk(1))
	buf := make([]history.TxnID, 0, 4)
	for _, c := range []struct {
		name string
		req  spec.Operation
		want int
		max  float64
	}{
		{"no conflicting holder", adt.DepositOk(5), 0, 0},
		{"one conflicting holder", adt.WithdrawOk(5), 1, 0},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if got := tab.Conflicting(buf[:0], c.req, "C"); len(got) != c.want {
				t.Fatalf("%s: holders %v", c.name, got)
			}
		})
		if allocs > c.max {
			t.Errorf("Conflicting with %s: %v allocs, want at most %v", c.name, allocs, c.max)
		}
	}
}

func TestTableSelfConflictIgnored(t *testing.T) {
	tab := nrbcTable()
	tab.Add("A", adt.DepositOk(5))
	if holders := tab.Conflicting(nil, adt.WithdrawOk(3), "A"); len(holders) != 0 {
		t.Fatalf("a transaction never conflicts with itself: %v", holders)
	}
}

func TestTableRelease(t *testing.T) {
	tab := nrbcTable()
	tab.Add("A", adt.DepositOk(5))
	tab.Add("A", adt.DepositOk(2))
	if ops := tab.held["A"]; len(ops) != 2 {
		t.Fatalf("held before release: %v", ops)
	}
	tab.Release("A")
	if holders := tab.Conflicting(nil, adt.WithdrawOk(3), "B"); len(holders) != 0 {
		t.Fatalf("after release no conflicts: %v", holders)
	}
	if tab.held["A"] != nil {
		t.Error("held ops should be cleared")
	}
}

func TestTableHolders(t *testing.T) {
	tab := nrbcTable()
	tab.Add("B", adt.DepositOk(1))
	tab.Add("A", adt.DepositOk(1))
	if len(tab.held) != 2 || len(tab.held["A"]) != 1 || len(tab.held["B"]) != 1 {
		t.Fatalf("holders = %v, want A and B with one lock each", tab.held)
	}
}

func TestTableMultipleConflictingHolders(t *testing.T) {
	tab := NewTable(adt.DefaultBankAccount().NFC())
	tab.Add("A", adt.WithdrawOk(1))
	tab.Add("B", adt.WithdrawOk(2))
	holders := tab.Conflicting(nil, adt.WithdrawOk(3), "C")
	if len(holders) != 2 || holders[0] != "A" || holders[1] != "B" {
		t.Fatalf("holders = %v, want [A B]", holders)
	}
}

// addWaits declares a wait for a test transaction whose age is its name:
// Begin order is alphabetical, so "A" is the oldest and the youngest
// member of a cycle is the alphabetically greatest.
func addWaits(d *Detector, id history.TxnID, holders []history.TxnID) error {
	_, err := d.AddWaits(Waiter{ID: id, Prio: age(id)}, holders)
	return err
}

func age(id history.TxnID) int64 { return int64(id[0]) }

// wakeCounter is a Waker that counts its calls.
type wakeCounter struct{ n int }

func (w *wakeCounter) Wake() { w.n++ }

func TestDetectorNoCycle(t *testing.T) {
	d := NewDetector()
	if err := addWaits(d, "A", []history.TxnID{"B"}); err != nil {
		t.Fatal(err)
	}
	if err := addWaits(d, "B", []history.TxnID{"C"}); err != nil {
		t.Fatal(err)
	}
	if d.WaitCount() != 2 {
		t.Errorf("WaitCount = %d", d.WaitCount())
	}
}

// TestDetectorDirectCycle: a two-transaction cycle aborts its youngest
// member, B, whichever of the two closes it.
func TestDetectorDirectCycle(t *testing.T) {
	t.Run("younger-requester", func(t *testing.T) {
		// B is ready to run when its request closes the cycle: it gets the
		// error and its edges are rolled back; A still waits.
		d := NewDetector()
		if err := addWaits(d, "A", []history.TxnID{"B"}); err != nil {
			t.Fatal(err)
		}
		err := addWaits(d, "B", []history.TxnID{"A"})
		var dl *ErrDeadlock
		if !errors.As(err, &dl) {
			t.Fatalf("expected ErrDeadlock, got %v", err)
		}
		if dl.Victim != "B" {
			t.Errorf("victim = %s, want the youngest, B", dl.Victim)
		}
		if d.WaitCount() != 1 {
			t.Errorf("WaitCount after rollback = %d, want 1", d.WaitCount())
		}
	})
	t.Run("older-requester", func(t *testing.T) {
		// B is asleep when A's request closes the cycle: A survives and
		// keeps waiting, B is wounded — its edges dropped, its Waker handed
		// back to A — and collects the wound when it wakes.
		d := NewDetector()
		wb := &wakeCounter{}
		if _, err := d.AddWaits(Waiter{ID: "B", Prio: age("B"), Wake: wb}, []history.TxnID{"A"}); err != nil {
			t.Fatal(err)
		}
		wake, err := d.AddWaits(Waiter{ID: "A", Prio: age("A")}, []history.TxnID{"B"})
		if err != nil {
			t.Fatalf("the older requester was victimized: %v", err)
		}
		if wake != wb {
			t.Fatalf("AddWaits handed back waker %v, want the victim's", wake)
		}
		// The cycle is broken: A re-declaring its wait finds none.
		if err := addWaits(d, "A", []history.TxnID{"B"}); err != nil {
			t.Fatalf("cycle not broken by the wound: %v", err)
		}
		var dl *ErrDeadlock
		if err := d.ClearWaits("B"); !errors.As(err, &dl) || dl.Victim != "B" {
			t.Fatalf("ClearWaits(B) = %v, want the wound naming B", err)
		}
		if d.WaitCount() != 1 {
			t.Errorf("WaitCount after the victim cleared = %d, want 1 (A)", d.WaitCount())
		}
		if err := d.ClearWaits("A"); err != nil {
			t.Errorf("ClearWaits(A) = %v, want nil: A survived", err)
		}
	})
	t.Run("wounded-waiter-redeclares", func(t *testing.T) {
		// A wounded waiter that declares a wait again before clearing (it
		// raced the wound between its own two lock sections) gets the
		// wound back as its error.
		d := NewDetector()
		if err := addWaits(d, "B", []history.TxnID{"A"}); err != nil {
			t.Fatal(err)
		}
		if err := addWaits(d, "A", []history.TxnID{"B"}); err != nil {
			t.Fatal(err)
		}
		var dl *ErrDeadlock
		if err := addWaits(d, "B", []history.TxnID{"A"}); !errors.As(err, &dl) || dl.Victim != "B" {
			t.Fatalf("re-declared wait = %v, want the wound naming B", err)
		}
		if err := d.ClearWaits("B"); err != nil {
			t.Fatalf("wound delivered twice: %v", err)
		}
	})
}

// TestDetectorWaitAllocFree pins the cost of a wait that closes no cycle:
// A declaring a wait on B, which waits on C, and clearing it again — the
// DFS walks the two-node chain A, B — allocates nothing. The holder slice
// is the caller's, kept by the detector.
func TestDetectorWaitAllocFree(t *testing.T) {
	d := NewDetector()
	if err := addWaits(d, "B", []history.TxnID{"C"}); err != nil {
		t.Fatal(err)
	}
	a, onB := Waiter{ID: "A", Prio: age("A")}, []history.TxnID{"B"}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := d.AddWaits(a, onB); err != nil {
			t.Fatal(err)
		}
		if err := d.ClearWaits("A"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a wait with no cycle: %v allocs, want 0", allocs)
	}
}

func TestDetectorTransitiveCycle(t *testing.T) {
	d := NewDetector()
	if err := addWaits(d, "A", []history.TxnID{"B"}); err != nil {
		t.Fatal(err)
	}
	if err := addWaits(d, "B", []history.TxnID{"C"}); err != nil {
		t.Fatal(err)
	}
	err := addWaits(d, "C", []history.TxnID{"A"})
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("expected transitive deadlock, got %v", err)
	}
	if dl.Victim != "C" || len(dl.Cycle) != 3 {
		t.Errorf("victim %s of cycle %v, want the youngest, C, of all three", dl.Victim, dl.Cycle)
	}
}

func TestDetectorClearBreaksCycles(t *testing.T) {
	d := NewDetector()
	if err := addWaits(d, "A", []history.TxnID{"B"}); err != nil {
		t.Fatal(err)
	}
	_ = d.ClearWaits("A")
	if err := addWaits(d, "B", []history.TxnID{"A"}); err != nil {
		t.Fatalf("no cycle after clear: %v", err)
	}
}

func TestDetectorSelfWaitImpossibleByConstruction(t *testing.T) {
	// Lock tables never report the requester itself, but the detector must
	// still catch a direct self-edge defensively.
	d := NewDetector()
	err := addWaits(d, "A", []history.TxnID{"A"})
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("self-wait should be a cycle, got %v", err)
	}
}

func TestAsymmetricRelationNoFalseDeadlock(t *testing.T) {
	// Under NRBC, deposit-then-withdraw blocks only one direction, so two
	// transactions holding a deposit each and requesting withdrawals form a
	// genuine cycle — while with the asymmetric grant (one holds only
	// balance reads) there is none. This test pins the relation-direction
	// plumbing end to end through table + detector.
	rel := adt.DefaultBankAccount().NRBC()
	tab := NewTable(rel)
	d := NewDetector()
	tab.Add("A", adt.DepositOk(5))
	tab.Add("B", adt.DepositOk(5))
	hA := tab.Conflicting(nil, adt.WithdrawOk(1), "A") // A requests, B holds dep
	if len(hA) != 1 || hA[0] != "B" {
		t.Fatalf("A's withdrawal should conflict with B's deposit: %v", hA)
	}
	if err := addWaits(d, "A", hA); err != nil {
		t.Fatal(err)
	}
	hB := tab.Conflicting(nil, adt.WithdrawOk(1), "B")
	if err := addWaits(d, "B", hB); err == nil {
		t.Fatal("expected deadlock: mutual withdraw-after-deposit")
	}
}

// TestDetectorStripedConcurrency hammers the detector from many
// goroutines with disjoint wait edges (no cycles): every add/clear must
// run without races under the detector's one lock, and the count drains
// to zero.
func TestDetectorStripedConcurrency(t *testing.T) {
	d := NewDetector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			waiter := history.TxnID(fmt.Sprintf("W%02d", g))
			holder := history.TxnID(fmt.Sprintf("H%02d", g))
			for i := 0; i < 200; i++ {
				if err := addWaits(d, waiter, []history.TxnID{holder}); err != nil {
					t.Errorf("unexpected deadlock: %v", err)
					return
				}
				_ = d.ClearWaits(waiter)
			}
		}(g)
	}
	wg.Wait()
	if n := d.WaitCount(); n != 0 {
		t.Errorf("WaitCount = %d after drain", n)
	}
}

// TestDetectorStripedSingleVictim: closing a cycle from two racing
// requesters yields exactly one victim — the youngest, B — even when both
// closers race, whether B learns it from its own AddWaits or as a wound
// collected by ClearWaits.
func TestDetectorStripedSingleVictim(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		d := NewDetector()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = addWaits(d, "A", []history.TxnID{"B"}) }()
		go func() { defer wg.Done(); errs[1] = addWaits(d, "B", []history.TxnID{"A"}) }()
		wg.Wait()
		victims := map[history.TxnID]bool{}
		for _, err := range append(errs, d.ClearWaits("A"), d.ClearWaits("B")) {
			if err != nil {
				var dl *ErrDeadlock
				if !errors.As(err, &dl) {
					t.Fatalf("unexpected error: %v", err)
				}
				victims[dl.Victim] = true
			}
		}
		// Both edges were declared, so the cycle existed; the serialized
		// check must have broken it by choosing exactly one victim.
		if len(victims) != 1 || !victims["B"] {
			t.Fatalf("trial %d: victims %v, want exactly the youngest, B", trial, victims)
		}
		if n := d.WaitCount(); n != 0 {
			t.Fatalf("trial %d: %d entries left after both cleared", trial, n)
		}
	}
}
