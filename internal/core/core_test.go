package core

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/history"
	"repro/internal/spec"
)

const bankX = history.ObjectID("BA")

// TestViewsSection5Example reproduces the UIP/DU comparison worked in
// Section 5: after A deposits 5 and commits and B withdraws 3 (active),
// UIP(H, ·) includes both operations for every transaction, while DU(H, C)
// for an unrelated transaction C contains only A's committed deposit.
func TestViewsSection5Example(t *testing.T) {
	h := history.NewBuilder().
		Invoke(bankX, "A", adt.Deposit(5)).Respond(bankX, "A", "ok").
		Commit(bankX, "A").
		Invoke(bankX, "B", adt.Withdraw(3)).Respond(bankX, "B", "ok").
		History()
	both := spec.Seq{adt.DepositOk(5), adt.WithdrawOk(3)}
	onlyA := spec.Seq{adt.DepositOk(5)}

	check := func(name string, got, want spec.Seq) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %s, want %s", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %s, want %s", name, got, want)
			}
		}
	}
	check("UIP(H,B)", UIP.F(h, "B"), both)
	check("UIP(H,C)", UIP.F(h, "C"), both)
	check("DU(H,B)", DU.F(h, "B"), both)
	check("DU(H,C)", DU.F(h, "C"), onlyA)
}

// TestUIPExcludesAborted: UIP drops aborted transactions' operations.
func TestUIPExcludesAborted(t *testing.T) {
	h := history.NewBuilder().
		Invoke(bankX, "A", adt.Deposit(5)).Respond(bankX, "A", "ok").
		History().
		Append(history.Event{Kind: history.Abort, Obj: bankX, Txn: "A"})
	h = append(h, history.NewBuilder().
		Invoke(bankX, "B", adt.Deposit(2)).Respond(bankX, "B", "ok").
		History()...)
	got := UIP.F(h, "B")
	if len(got) != 1 || got[0] != adt.DepositOk(2) {
		t.Fatalf("UIP after abort = %s", got)
	}
}

// TestDUCommitOrderNotExecutionOrder: DU orders committed operations by
// commit order, which may differ from execution order.
func TestDUCommitOrderNotExecutionOrder(t *testing.T) {
	x := history.ObjectID("Q")
	// A enqueues a, then B enqueues b; B commits first.
	h := history.NewBuilder().
		Invoke(x, "A", adt.Enq("a")).Respond(x, "A", "ok").
		Invoke(x, "B", adt.Enq("b")).Respond(x, "B", "ok").
		Commit(x, "B").
		Commit(x, "A").
		History()
	got := DU.F(h, "C")
	want := spec.Seq{adt.EnqOk("b"), adt.EnqOk("a")}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("DU = %s, want %s (commit order)", got, want)
	}
	// UIP uses execution order instead.
	uip := UIP.F(h, "C")
	if uip[0] != adt.EnqOk("a") {
		t.Fatalf("UIP = %s, want execution order", uip)
	}
}

// TestObjectBasicLifecycle drives the I(X, Spec, View, Conflict) automaton
// through the paper's example history.
func TestObjectBasicLifecycle(t *testing.T) {
	ba := adt.DefaultBankAccount()
	o := NewObject(bankX, ba.Spec(), UIP, ba.NRBC())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(o.Invoke("A", adt.Deposit(3)))
	must(o.Respond("A", "ok"))
	must(o.Commit("A"))
	must(o.Invoke("B", adt.Withdraw(2)))
	must(o.Respond("B", "ok"))
	must(o.Commit("B"))
	if err := history.WellFormed(o.History()); err != nil {
		t.Fatal(err)
	}
}

// TestObjectEnforcesSpecLegality: responses inconsistent with the view are
// rejected.
func TestObjectEnforcesSpecLegality(t *testing.T) {
	ba := adt.DefaultBankAccount()
	o := NewObject(bankX, ba.Spec(), UIP, ba.NRBC())
	if err := o.Invoke("A", adt.Withdraw(5)); err != nil {
		t.Fatal(err)
	}
	if err := o.Respond("A", "ok"); err == nil {
		t.Fatal("overdraft response should be rejected")
	}
	if err := o.Respond("A", "no"); err != nil {
		t.Fatalf("failed-withdrawal response should be accepted: %v", err)
	}
	enabled := o.EnabledResponses("A", []spec.Response{"ok", "no"})
	if len(enabled) != 0 {
		t.Fatalf("no pending invocation; EnabledResponses = %v", enabled)
	}
}

// TestObjectEnforcesConflicts: under UIP/NRBC, a requested successful
// withdrawal conflicts with an active transaction's deposit.
func TestObjectEnforcesConflicts(t *testing.T) {
	ba := adt.DefaultBankAccount()
	o := NewObject(bankX, ba.Spec(), UIP, ba.NRBC())
	if err := o.Invoke("A", adt.Deposit(5)); err != nil {
		t.Fatal(err)
	}
	if err := o.Respond("A", "ok"); err != nil {
		t.Fatal(err)
	}
	// B's withdrawal depends on A's uncommitted deposit: blocked.
	if err := o.Invoke("B", adt.Withdraw(3)); err != nil {
		t.Fatal(err)
	}
	if ok, reason := o.ResponseEnabled("B", "ok"); ok {
		t.Fatal("withdraw-ok should conflict with held deposit under NRBC")
	} else if reason == "" {
		t.Fatal("expected a reason")
	}
	// After A commits, the lock is released and the response enables.
	if err := o.Commit("A"); err != nil {
		t.Fatal(err)
	}
	if ok, reason := o.ResponseEnabled("B", "ok"); !ok {
		t.Fatalf("withdrawal should enable after commit: %s", reason)
	}
}

// TestObjectWellFormednessGuards: input events preserve well-formedness.
func TestObjectWellFormednessGuards(t *testing.T) {
	ba := adt.DefaultBankAccount()
	o := NewObject(bankX, ba.Spec(), UIP, ba.NRBC())
	if err := o.Invoke("A", adt.Deposit(1)); err != nil {
		t.Fatal(err)
	}
	if err := o.Invoke("A", adt.Deposit(2)); err == nil {
		t.Fatal("second invocation while pending should fail")
	}
	if err := o.Commit("A"); err == nil {
		t.Fatal("commit while pending should fail")
	}
	if err := o.Respond("A", "ok"); err != nil {
		t.Fatal(err)
	}
	if err := o.Abort("A"); err != nil {
		t.Fatal(err)
	}
	if err := o.Commit("A"); err == nil {
		t.Fatal("commit after abort should fail")
	}
}

// theoremSpecs returns the spec map for counterexample checking.
func theoremSpecs(sp spec.Spec) atomicity.Specs {
	return atomicity.Specs{bankX: sp}
}

// TestTheorem9OnlyIfBankAccount machine-builds the Theorem 9
// counterexample on the bank account: run UIP with the NFC conflict
// relation, which misses the NRBC pair (withdraw-ok, deposit). The
// resulting history must be accepted by the automaton and must not be
// dynamic atomic.
func TestTheorem9OnlyIfBankAccount(t *testing.T) {
	ba := adt.DefaultBankAccount()
	c := ba.Checker()
	p, q := adt.WithdrawOk(2), adt.DepositOk(2)
	// (P,Q) ∈ NRBC \ NFC.
	if !ba.NRBC().Conflicts(p, q) || ba.NFC().Conflicts(p, q) {
		t.Fatal("precondition: (wok,dep) ∈ NRBC \\ NFC")
	}
	v, found := c.RBCViolationWitness(p, q)
	if !found {
		t.Fatal("expected an RBC violation witness")
	}
	ce := BuildUIPCounterexample(bankX, v)
	if err := history.WellFormed(ce.H); err != nil {
		t.Fatalf("counterexample not well-formed: %v", err)
	}
	ok, idx, reason := Accepts(bankX, ba.Spec(), UIP, ba.NFC(), ce.H)
	if !ok {
		t.Fatalf("I(X,Spec,UIP,NFC) must accept the counterexample; event %d: %s\n%s", idx, reason, ce.H)
	}
	da, viol, err := atomicity.DynamicAtomic(ce.H, theoremSpecs(ba.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	if da {
		t.Fatalf("counterexample should not be dynamic atomic:\n%s", ce.H)
	}
	t.Logf("%s; violating order %v", ce.Comment, viol.Order)
	// Sanity: with the full NRBC relation the same history is rejected.
	ok, _, _ = Accepts(bankX, ba.Spec(), UIP, ba.NRBC(), ce.H)
	if ok {
		t.Fatal("I(X,Spec,UIP,NRBC) must reject the counterexample")
	}
}

// TestTheorem10OnlyIfBankAccount mirrors Theorem 10 on the bank account:
// run DU with the NRBC conflict relation, which misses the NFC pair
// (withdraw-ok, withdraw-ok) — two withdrawals both validated against the
// committed balance.
func TestTheorem10OnlyIfBankAccount(t *testing.T) {
	ba := adt.DefaultBankAccount()
	c := ba.Checker()
	p, q := adt.WithdrawOk(2), adt.WithdrawOk(2)
	if !ba.NFC().Conflicts(p, q) || ba.NRBC().Conflicts(p, q) {
		t.Fatal("precondition: (wok,wok) ∈ NFC \\ NRBC")
	}
	v, found := c.FCViolationWitness(p, q)
	if !found {
		t.Fatal("expected an FC violation witness")
	}
	ce := BuildDUCounterexample(bankX, v)
	if err := history.WellFormed(ce.H); err != nil {
		t.Fatalf("counterexample not well-formed: %v", err)
	}
	ok, idx, reason := Accepts(bankX, ba.Spec(), DU, ba.NRBC(), ce.H)
	if !ok {
		t.Fatalf("I(X,Spec,DU,NRBC) must accept the counterexample; event %d: %s\n%s", idx, reason, ce.H)
	}
	da, viol, err := atomicity.DynamicAtomic(ce.H, theoremSpecs(ba.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	if da {
		t.Fatalf("counterexample should not be dynamic atomic:\n%s", ce.H)
	}
	t.Logf("%s; violating order %v", ce.Comment, viol.Order)
	ok, _, _ = Accepts(bankX, ba.Spec(), DU, ba.NFC(), ce.H)
	if ok {
		t.Fatal("I(X,Spec,DU,NFC) must reject the counterexample")
	}
}

// TestTheoremOnlyIfGenericWitnesses sweeps every operation pair of several
// finite specs: whenever the checker reports a violation witness, the
// corresponding machine-built counterexample must be accepted by the
// under-conflicted automaton and must not be dynamic atomic. This validates
// the only-if constructions generically, not just on the bank account.
func TestTheoremOnlyIfGenericWitnesses(t *testing.T) {
	specs := []spec.Enumerable{
		adt.PartialSpecA(), adt.PartialSpecB(),
		adt.NondetSpecC(), adt.NondetSpecD(),
		adt.TableISpec(),
	}
	for _, sp := range specs {
		c := NewCheckerForTest(sp)
		none := emptyRelation()
		for _, p := range sp.Alphabet() {
			for _, q := range sp.Alphabet() {
				if v, found := c.RBCViolationWitness(p, q); found {
					ce := BuildUIPCounterexample("X", v)
					if err := history.WellFormed(ce.H); err != nil {
						t.Fatalf("%s: UIP counterexample (%s,%s) malformed: %v", sp.Name(), p, q, err)
					}
					ok, idx, reason := Accepts("X", sp, UIP, none, ce.H)
					if !ok {
						t.Fatalf("%s: UIP automaton rejected counterexample for (%s,%s) at %d: %s", sp.Name(), p, q, idx, reason)
					}
					da, _, err := atomicity.DynamicAtomic(ce.H, atomicity.Specs{"X": sp})
					if err != nil {
						t.Fatal(err)
					}
					if da {
						t.Fatalf("%s: UIP counterexample for (%s,%s) is dynamic atomic:\n%s", sp.Name(), p, q, ce.H)
					}
				}
				if v, found := c.FCViolationWitness(p, q); found {
					ce := BuildDUCounterexample("X", v)
					if err := history.WellFormed(ce.H); err != nil {
						t.Fatalf("%s: DU counterexample (%s,%s) malformed: %v", sp.Name(), p, q, err)
					}
					ok, idx, reason := Accepts("X", sp, DU, none, ce.H)
					if !ok {
						t.Fatalf("%s: DU automaton rejected counterexample for (%s,%s) at %d: %s", sp.Name(), p, q, idx, reason)
					}
					da, _, err := atomicity.DynamicAtomic(ce.H, atomicity.Specs{"X": sp})
					if err != nil {
						t.Fatal(err)
					}
					if da {
						t.Fatalf("%s: DU counterexample for (%s,%s) is dynamic atomic:\n%s", sp.Name(), p, q, ce.H)
					}
				}
			}
		}
	}
}

// ID returns the object identifier.
func (o *Object) ID() history.ObjectID { return o.id }

// History returns a copy of the object's event history (its state).
func (o *Object) History() history.History { return o.state.Clone() }

// EnabledResponses returns the candidate responses currently enabled for
// a's pending invocation, drawn from the given candidates.
func (o *Object) EnabledResponses(a history.TxnID, candidates []spec.Response) []spec.Response {
	var out []spec.Response
	for _, r := range candidates {
		if ok, _ := o.ResponseEnabled(a, r); ok {
			out = append(out, r)
		}
	}
	return out
}
