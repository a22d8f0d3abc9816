package adt

import (
	"testing"

	"repro/internal/spec"
)

// TestCounterDoubleBoundedConflicts: unlike the bank account, the escrow
// counter is bounded above too, so successful increments conflict with each
// other under NFC (two increments can exhaust the headroom) exactly as
// successful decrements do.
func TestCounterDoubleBoundedConflicts(t *testing.T) {
	ctr := DefaultEscrowCounter()
	nfc := ctr.NFC()
	if !nfc.Conflicts(IncOk(2), IncOk(2)) {
		t.Error("(inc-ok, inc-ok) should be in NFC near the ceiling")
	}
	if !nfc.Conflicts(DecOk(2), DecOk(2)) {
		t.Error("(dec-ok, dec-ok) should be in NFC near the floor")
	}
	// The bank account has no ceiling: deposits never conflict there.
	ba := DefaultBankAccount()
	if ba.NFC().Conflicts(DepositOk(2), DepositOk(2)) {
		t.Error("bank-account deposits commute; the counter's ceiling is the difference")
	}
}

// TestCounterMirrorSymmetry: the counter's spec is symmetric under
// value ↦ Max−value with inc ↔ dec, so the derived relations must be
// symmetric under swapping inc-ok/dec-ok and inc-no/dec-no.
func TestCounterMirrorSymmetry(t *testing.T) {
	ctr := DefaultEscrowCounter()
	c := ctr.Checker()
	mirror := func(op spec.Operation) spec.Operation {
		switch op.Inv.Name {
		case "inc":
			return spec.Op(Dec(mustInt(op.Inv.Args)), op.Res)
		case "dec":
			return spec.Op(Inc(mustInt(op.Inv.Args)), op.Res)
		}
		return op // reads are not mirrored (values differ); skip below
	}
	ops := []spec.Operation{IncOk(1), IncOk(2), IncNo(2), DecOk(1), DecOk(2), DecNo(2)}
	for _, p := range ops {
		for _, q := range ops {
			got := c.CommuteForward(p, q)
			want := c.CommuteForward(mirror(p), mirror(q))
			if got != want {
				t.Errorf("mirror symmetry broken for FC(%s,%s)", p, q)
			}
			gotR := c.RightCommutesBackward(p, q)
			wantR := c.RightCommutesBackward(mirror(p), mirror(q))
			if gotR != wantR {
				t.Errorf("mirror symmetry broken for RBC(%s,%s)", p, q)
			}
		}
	}
}

// TestCounterIncomparability: NFC and NRBC remain incomparable on the
// counter — the paper's trade-off is not special to the bank account.
func TestCounterIncomparability(t *testing.T) {
	ctr := DefaultEscrowCounter()
	c := ctr.Checker()
	var nfcOnly, nrbcOnly bool
	for _, p := range ctr.Spec().Alphabet() {
		for _, q := range ctr.Spec().Alphabet() {
			fc := !c.CommuteForward(p, q)
			rbc := !c.RightCommutesBackward(p, q)
			if fc && !rbc {
				nfcOnly = true
			}
			if rbc && !fc {
				nrbcOnly = true
			}
		}
	}
	if !nfcOnly || !nrbcOnly {
		t.Fatalf("counter relations should be incomparable: NFC-only=%v NRBC-only=%v", nfcOnly, nrbcOnly)
	}
}

// TestCounterInvocationLemmas: counter invocations are total and
// deterministic, so FCI = RBCI = CI (Lemmas 15–16) on this type too.
func TestCounterInvocationLemmas(t *testing.T) {
	ctr := DefaultEscrowCounter()
	c := ctr.Checker()
	invs := []spec.Invocation{Inc(1), Inc(2), Dec(1), Dec(2), ReadCtr()}
	for _, i := range invs {
		if !c.Total(i) || !c.Deterministic(i) {
			t.Fatalf("%s should be total and deterministic", i)
		}
	}
	for _, i := range invs {
		for _, j := range invs {
			ci, err := c.CI(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if c.FCI(i, j) != ci || c.RBCI(i, j) != ci {
				t.Errorf("FCI/RBCI/CI diverge on (%s,%s)", i, j)
			}
		}
	}
}

func TestCounterMachine(t *testing.T) {
	m := DefaultEscrowCounter().Machine()
	v := m.Init()
	for _, c := range []struct {
		inv  spec.Invocation
		want spec.Response
	}{{Inc(2), "ok"}, {Inc(2), "ok"}, {Inc(1), "no"}, {ReadCtr(), "8"}} {
		if res := mustStep(t, m, v, c.inv); res != c.want {
			t.Fatalf("%s = %v, want %v (value %s)", c.inv, res, c.want, v.Encode())
		}
	}
	if err := m.Undo(v, IncOk(2)); err != nil || v.Encode() != "6" {
		t.Fatalf("undo inc: %v %v", v.Encode(), err)
	}
	if err := m.Undo(v, DecNo(9)); err != nil || v.Encode() != "6" {
		t.Fatalf("undo failed dec is a no-op: %v %v", v.Encode(), err)
	}
}

// TestCounterMachineRefinesSpec: machine executions stay legal in the spec.
func TestCounterMachineRefinesSpec(t *testing.T) {
	ctr := DefaultEscrowCounter()
	checkRefines(t, ctr.Machine(), ctr.Spec(), []spec.Invocation{
		Inc(2), Inc(2), Inc(1), Dec(2), ReadCtr(), Dec(2), Dec(2), Dec(2), ReadCtr(),
	})
}
