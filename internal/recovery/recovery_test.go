package recovery

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/wal"
)

func newUndoBA() *UndoLog {
	return NewUndoLog("BA", adt.DefaultBankAccount().Machine(), wal.New())
}

func newIntentBA() *Intentions {
	return NewIntentions("BA", adt.DefaultBankAccount().Machine())
}

func TestUndoLogBasicCommit(t *testing.T) {
	u := newUndoBA()
	res, err := PeekApply(u, "A", adt.Deposit(5))
	if err != nil || res != "ok" {
		t.Fatalf("apply: %v %v", res, err)
	}
	if err := u.Commit("A"); err != nil {
		t.Fatal(err)
	}
	if got := u.CommittedValue().Encode(); got != "5" {
		t.Fatalf("committed value = %s", got)
	}
}

func TestUndoLogAbortUndoesInReverse(t *testing.T) {
	u := newUndoBA()
	mustApply := func(txn history.TxnID, inv spec.Invocation) {
		t.Helper()
		if _, err := PeekApply(u, txn, inv); err != nil {
			t.Fatal(err)
		}
	}
	mustApply("A", adt.Deposit(5))
	mustApply("A", adt.Withdraw(2))
	if err := u.Abort("A"); err != nil {
		t.Fatal(err)
	}
	if got := u.CommittedValue().Encode(); got != "0" {
		t.Fatalf("state after abort = %s, want 0", got)
	}
	if u.Stats().Undos != 2 {
		t.Errorf("Undos = %d, want 2", u.Stats().Undos)
	}
}

// TestUndoLogConcurrentUpdatersAbort is the crux of operation logging:
// undoing A's deposit must not clobber B's concurrent deposit.
func TestUndoLogConcurrentUpdatersAbort(t *testing.T) {
	u := newUndoBA()
	if _, err := PeekApply(u, "A", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekApply(u, "B", adt.Deposit(3)); err != nil {
		t.Fatal(err)
	}
	if err := u.Abort("A"); err != nil {
		t.Fatal(err)
	}
	if err := u.Commit("B"); err != nil {
		t.Fatal(err)
	}
	if got := u.CommittedValue().Encode(); got != "3" {
		t.Fatalf("state = %s, want 3 (B's deposit preserved)", got)
	}
}

// TestUndoLogUIPVisibility: uncommitted effects are visible to others —
// update-in-place semantics.
func TestUndoLogUIPVisibility(t *testing.T) {
	u := newUndoBA()
	if _, err := PeekApply(u, "A", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	step, err := u.Peek("B", adt.Withdraw(3))
	if err != nil || step.Res != "ok" {
		t.Fatalf("B should see A's uncommitted deposit: %v %v", step.Res, err)
	}
}

func TestUndoLogWALRecords(t *testing.T) {
	log := backedLog(t)
	u := NewUndoLog("BA", adt.DefaultBankAccount().Machine(), log)
	if _, err := PeekApply(u, "A", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	if err := u.Abort("A"); err != nil {
		t.Fatal(err)
	}
	recs := log.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("expected update+clr+abort, got %v", recs)
	}
	if recs[0].Kind != wal.Update || recs[1].Kind != wal.CompensationRec || recs[2].Kind != wal.AbortRec {
		t.Fatalf("record kinds = %v %v %v", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
}

func TestUndoLogBeforeImageMachine(t *testing.T) {
	// The KV machine needs before-image undo; the undo log must capture and
	// use it.
	u := NewUndoLog("KV", adt.DefaultKVStore().Machine(), wal.New())
	if _, err := PeekApply(u, "A", adt.Put("x", "1")); err != nil {
		t.Fatal(err)
	}
	if err := u.Commit("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekApply(u, "B", adt.Put("x", "2")); err != nil {
		t.Fatal(err)
	}
	if err := u.Abort("B"); err != nil {
		t.Fatal(err)
	}
	if got := u.CommittedValue().Encode(); got != "<x=1>" {
		t.Fatalf("state = %s, want <x=1>", got)
	}
}

// TestUndoLogSpareHoldsNoTokens: a discharged undo chain is kept for the
// next transaction's reuse, cleared first, so no before token it held
// stays reachable — after a commit and after an abort alike.
func TestUndoLogSpareHoldsNoTokens(t *testing.T) {
	u := NewUndoLog("KV", adt.DefaultKVStore().Machine(), wal.New())
	checkSpare := func(after string) {
		t.Helper()
		for i, r := range u.spare[:cap(u.spare)] {
			if r.before != nil || r.op != (spec.Operation{}) {
				t.Fatalf("after %s: spare record %d still holds %v", after, i, r)
			}
		}
	}
	for _, k := range []string{"x", "y", "z"} {
		if _, err := PeekApply(u, "A", adt.Put(k, "1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Commit("A"); err != nil {
		t.Fatal(err)
	}
	if cap(u.spare) < 3 {
		t.Fatalf("spare cap %d after a three-record chain, want at least 3", cap(u.spare))
	}
	checkSpare("commit")
	committed := u.CommittedValue().Encode()
	for _, k := range []string{"x", "y"} {
		if _, err := PeekApply(u, "B", adt.Put(k, "2")); err != nil {
			t.Fatal(err)
		}
	}
	if u.spare != nil {
		t.Fatal("B's chain did not take over the spare")
	}
	if err := u.Abort("B"); err != nil {
		t.Fatal(err)
	}
	checkSpare("abort")
	if got := u.CommittedValue().Encode(); got != committed {
		t.Fatalf("state after B's abort = %s, want %s", got, committed)
	}
}

// TestIntentionsSpareHoldsNoOps: a discharged intentions list is kept for
// the next transaction's reuse, its ops cleared and its workspace marked
// stale first, so no operation it held stays reachable and the next list
// rebuilds the workspace storage it inherits before reading it — after a
// commit and after an abort alike.
func TestIntentionsSpareHoldsNoOps(t *testing.T) {
	n := NewIntentions("KV", adt.DefaultKVStore().Machine())
	checkSpare := func(after string) {
		t.Helper()
		if n.spare == nil {
			t.Fatalf("after %s: no spare list", after)
		}
		if n.spare.wsLen != 0 || len(n.spare.ops) != 0 {
			t.Fatalf("after %s: spare holds a workspace of %d ops and %d ops", after, n.spare.wsLen, len(n.spare.ops))
		}
		for i, op := range n.spare.ops[:cap(n.spare.ops)] {
			if op != (spec.Operation{}) {
				t.Fatalf("after %s: spare op %d still holds %v", after, i, op)
			}
		}
	}
	for _, k := range []string{"x", "y", "z"} {
		if _, err := PeekApply(n, "A", adt.Put(k, "1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Commit("A"); err != nil {
		t.Fatal(err)
	}
	if cap(n.spare.ops) < 3 {
		t.Fatalf("spare cap %d after a three-op list, want at least 3", cap(n.spare.ops))
	}
	checkSpare("commit")
	committed := n.CommittedValue().Encode()
	for _, k := range []string{"x", "y"} {
		if _, err := PeekApply(n, "B", adt.Put(k, "2")); err != nil {
			t.Fatal(err)
		}
	}
	if n.spare != nil {
		t.Fatal("B's list did not take over the spare")
	}
	if err := n.Abort("B"); err != nil {
		t.Fatal(err)
	}
	checkSpare("abort")
	if got := n.CommittedValue().Encode(); got != committed {
		t.Fatalf("base after B's abort = %s, want %s", got, committed)
	}
}

func TestIntentionsDUVisibility(t *testing.T) {
	n := newIntentBA()
	if _, err := PeekApply(n, "A", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	// B does not see A's uncommitted deposit.
	step, err := n.Peek("B", adt.Withdraw(3))
	if err != nil || step.Res != "no" {
		t.Fatalf("B should see the committed balance 0: %v %v", step.Res, err)
	}
	// A sees its own intentions.
	step, err = n.Peek("A", adt.Withdraw(3))
	if err != nil || step.Res != "ok" {
		t.Fatalf("A should see its own deposit: %v %v", step.Res, err)
	}
	if err := n.Commit("A"); err != nil {
		t.Fatal(err)
	}
	step, err = n.Peek("B", adt.Withdraw(3))
	if err != nil || step.Res != "ok" {
		t.Fatalf("after commit B sees the deposit: %v %v", step.Res, err)
	}
}

func TestIntentionsAbortIsFree(t *testing.T) {
	n := newIntentBA()
	if _, err := PeekApply(n, "A", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	if err := n.Abort("A"); err != nil {
		t.Fatal(err)
	}
	if got := n.CommittedValue().Encode(); got != "0" {
		t.Fatalf("base = %s, want 0", got)
	}
	if n.Stats().Undos != 0 {
		t.Error("intentions abort must not undo anything")
	}
}

func TestIntentionsCommitOrder(t *testing.T) {
	// Queue: A enqueues a, B enqueues b, B commits first — base must read
	// [b;a] (commit order), not execution order. Note enq/enq conflicts
	// under NFC, so a real engine would never interleave these; the store
	// itself is order-agnostic and follows Commit calls.
	n := NewIntentions("Q", adt.DefaultFIFOQueue().Machine())
	if _, err := PeekApply(n, "A", adt.Enq("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekApply(n, "B", adt.Enq("b")); err != nil {
		t.Fatal(err)
	}
	if err := n.Commit("B"); err != nil {
		t.Fatal(err)
	}
	if err := n.Commit("A"); err != nil {
		t.Fatal(err)
	}
	if got := n.CommittedValue().Encode(); got != "[b;a]" {
		t.Fatalf("base = %s, want [b;a]", got)
	}
}

func TestIntentionsWorkspaceRefreshAfterBaseMove(t *testing.T) {
	n := newIntentBA()
	if _, err := PeekApply(n, "A", adt.Deposit(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekApply(n, "B", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	if err := n.Commit("B"); err != nil {
		t.Fatal(err)
	}
	// A's workspace is now base(5) + own deposit(2) = 7.
	step, err := n.Peek("A", adt.Balance())
	if err != nil || step.Res != "7" {
		t.Fatalf("A's balance = %v %v, want 7", step.Res, err)
	}
	if n.Stats().Replays == 0 {
		t.Error("expected replay work after base movement")
	}
}

// TestIntentionsFailedCommitLeavesBase: a commit replays its intentions
// onto the base in place; when an intention no longer gets its recorded
// response there, the commit fails and the prefix it applied is undone —
// logically on the account, from a before image on the KV store — so the
// base is as the last successful commit left it. (The store takes the
// commits in any order; under NFC locking the engine never would.)
func TestIntentionsFailedCommitLeavesBase(t *testing.T) {
	cases := []struct {
		name  string
		m     adt.Machine
		a, b  []spec.Invocation
		wantB string
	}{
		{
			name: "bank-account", m: adt.DefaultBankAccount().Machine(),
			// A's withdrawal fails on its own deposit of 1; after B's
			// deposit of 5 it would succeed.
			a:     []spec.Invocation{adt.Deposit(1), adt.Withdraw(2)},
			b:     []spec.Invocation{adt.Deposit(5)},
			wantB: "5",
		},
		{
			name: "kv-store", m: adt.DefaultKVStore().Machine(),
			// A read y as unset; B's put makes it 2.
			a:     []spec.Invocation{adt.Put("x", "1"), adt.Get("y")},
			b:     []spec.Invocation{adt.Put("y", "2")},
			wantB: "<y=2>",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := NewIntentions("O", c.m)
			for _, inv := range c.a {
				if _, err := PeekApply(n, "A", inv); err != nil {
					t.Fatal(err)
				}
			}
			for _, inv := range c.b {
				if _, err := PeekApply(n, "B", inv); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Commit("B"); err != nil {
				t.Fatal(err)
			}
			if err := n.Commit("A"); err == nil || !strings.Contains(err.Error(), "replayed with response") {
				t.Fatalf("A's commit = %v, want a divergent replay", err)
			}
			if got := n.CommittedValue().Encode(); got != c.wantB {
				t.Fatalf("base after A's failed commit = %s, want %s", got, c.wantB)
			}
		})
	}
}

func TestIntentionsPartialInvocation(t *testing.T) {
	n := NewIntentions("P", adt.ResourcePool{Resources: []int{1}}.Machine())
	if _, err := PeekApply(n, "A", adt.Alloc()); err != nil {
		t.Fatal(err)
	}
	// A's workspace is empty; alloc is not enabled for A.
	if _, err := n.Peek("A", adt.Alloc()); !errors.Is(err, adt.ErrNotEnabled) {
		t.Fatalf("expected ErrNotEnabled, got %v", err)
	}
	// B's workspace is the base (still full): alloc picks resource 1 —
	// and would conflict under NFC, which the engine enforces, not the
	// store.
	step, err := n.Peek("B", adt.Alloc())
	if err != nil || step.Res != "1" {
		t.Fatalf("B's alloc = %v %v", step.Res, err)
	}
}

func TestUndoLogPartialInvocation(t *testing.T) {
	u := NewUndoLog("P", adt.ResourcePool{Resources: []int{1}}.Machine(), wal.New())
	if _, err := PeekApply(u, "A", adt.Alloc()); err != nil {
		t.Fatal(err)
	}
	// Update-in-place: the pool is empty for everyone.
	if _, err := u.Peek("B", adt.Alloc()); !errors.Is(err, adt.ErrNotEnabled) {
		t.Fatalf("expected ErrNotEnabled, got %v", err)
	}
	if err := u.Abort("A"); err != nil {
		t.Fatal(err)
	}
	step, err := u.Peek("B", adt.Alloc())
	if err != nil || step.Res != "1" {
		t.Fatalf("after abort the resource is back: %v %v", step.Res, err)
	}
}
