package adt

import (
	"testing"

	"repro/internal/spec"
)

// figureOps returns representative operations for the 4×4 tables of
// Figures 6.1 and 6.2: deposit, successful withdrawal, failed withdrawal,
// balance. Amounts i=2 (rows) and j=1..3 (columns) are exercised
// separately; the table shape is amount-independent.
func figureOps(i int) []spec.Operation {
	return []spec.Operation{DepositOk(i), WithdrawOk(i), WithdrawNo(i), BalanceIs(i)}
}

// TestFig61ForwardCommutativity regenerates Figure 6.1: the forward
// commutativity relation for the bank account, derived from the
// specification with the exact checker, and compares it to the paper's
// table (encoded analytically in NFC).
func TestFig61ForwardCommutativity(t *testing.T) {
	ba := DefaultBankAccount()
	c := ba.Checker()
	analytic := ba.NFC()
	for _, i := range ba.Amounts {
		for _, j := range ba.Amounts {
			rows := figureOps(i)
			cols := figureOps(j)
			for _, p := range rows {
				for _, q := range cols {
					derived := !c.CommuteForward(p, q)
					want := analytic.Conflicts(p, q)
					if derived != want {
						t.Errorf("Fig 6.1 mismatch at (%s,%s): derived NFC=%v, paper=%v", p, q, derived, want)
					}
				}
			}
		}
	}
}

// TestFig62BackwardCommutativity regenerates Figure 6.2: the right backward
// commutativity relation, including its asymmetries.
func TestFig62BackwardCommutativity(t *testing.T) {
	ba := DefaultBankAccount()
	c := ba.Checker()
	analytic := ba.NRBC()
	for _, i := range ba.Amounts {
		for _, j := range ba.Amounts {
			rows := figureOps(i)
			cols := figureOps(j)
			for _, p := range rows {
				for _, q := range cols {
					derived := !c.RightCommutesBackward(p, q)
					want := analytic.Conflicts(p, q)
					if derived != want {
						t.Errorf("Fig 6.2 mismatch at (%s,%s): derived NRBC=%v, paper=%v", p, q, derived, want)
					}
				}
			}
		}
	}
}

// TestPaperWorkedExamples checks the two commutativity arguments worked in
// the paper's prose (Section 6.2 and 6.3).
func TestPaperWorkedExamples(t *testing.T) {
	ba := DefaultBankAccount()
	c := ba.Checker()
	// Section 6.2: successful withdrawals commute forward with deposits.
	if !c.CommuteForward(WithdrawOk(2), DepositOk(3)) {
		t.Error("withdraw-ok should commute forward with deposit")
	}
	// Successful withdrawals do not commute forward with each other.
	if c.CommuteForward(WithdrawOk(2), WithdrawOk(3)) {
		t.Error("withdraw-ok should not commute forward with withdraw-ok")
	}
	// Section 6.3: a withdrawal does not right-commute backward with a
	// deposit, but a deposit does right-commute backward with a withdrawal.
	if c.RightCommutesBackward(WithdrawOk(2), DepositOk(1)) {
		t.Error("withdraw-ok should not right-commute-backward with deposit")
	}
	if !c.RightCommutesBackward(DepositOk(1), WithdrawOk(2)) {
		t.Error("deposit should right-commute-backward with withdraw-ok")
	}
}

// TestIncomparability verifies the central corollary: NFC and NRBC are
// incomparable — each contains pairs the other excludes.
func TestIncomparability(t *testing.T) {
	ba := DefaultBankAccount()
	nfc := ba.NFC()
	nrbc := ba.NRBC()
	// (withdraw-ok, withdraw-ok) ∈ NFC \ NRBC: DU must forbid concurrent
	// successful withdrawals, UIP may allow them.
	p, q := WithdrawOk(1), WithdrawOk(2)
	if !nfc.Conflicts(p, q) {
		t.Error("(wok,wok) should be in NFC")
	}
	if nrbc.Conflicts(p, q) {
		t.Error("(wok,wok) should not be in NRBC")
	}
	// (withdraw-ok, deposit) ∈ NRBC \ NFC: UIP must forbid a withdrawal
	// running after an uncommitted deposit, DU may allow it.
	if nrbc.Conflicts(WithdrawOk(2), DepositOk(1)) == false {
		t.Error("(wok,dep) should be in NRBC")
	}
	if nfc.Conflicts(WithdrawOk(2), DepositOk(1)) {
		t.Error("(wok,dep) should not be in NFC")
	}
}

// TestNRBCAsymmetry verifies that the NRBC relation is genuinely
// asymmetric, which the paper stresses would be destroyed by requiring
// symmetric conflict relations.
func TestNRBCAsymmetry(t *testing.T) {
	nrbc := DefaultBankAccount().NRBC()
	if !nrbc.Conflicts(WithdrawOk(2), DepositOk(1)) {
		t.Error("requested wok should conflict with held dep")
	}
	if nrbc.Conflicts(DepositOk(1), WithdrawOk(2)) {
		t.Error("requested dep should not conflict with held wok")
	}
}

// TestRWContainsBoth verifies Section 8.1 for the bank account: the
// read/write relation contains both NFC and NRBC.
func TestRWContainsBoth(t *testing.T) {
	ba := DefaultBankAccount()
	rw := ba.RW()
	nfc := ba.NFC()
	nrbc := ba.NRBC()
	ops := []spec.Operation{DepositOk(1), WithdrawOk(2), WithdrawNo(3), BalanceIs(4)}
	for _, p := range ops {
		for _, q := range ops {
			if nfc.Conflicts(p, q) && !rw.Conflicts(p, q) {
				t.Errorf("RW misses NFC pair (%s,%s)", p, q)
			}
			if nrbc.Conflicts(p, q) && !rw.Conflicts(p, q) {
				t.Errorf("RW misses NRBC pair (%s,%s)", p, q)
			}
		}
	}
	if rw.Conflicts(BalanceIs(1), BalanceIs(2)) {
		t.Error("two balance reads should not conflict under RW")
	}
}

// TestBATotalDeterministic verifies the invocations of the bank account are
// total and deterministic (Section 8.2.1's premise for this type).
func TestBATotalDeterministic(t *testing.T) {
	ba := DefaultBankAccount()
	c := ba.Checker()
	for _, inv := range []spec.Invocation{Deposit(1), Deposit(3), Withdraw(1), Withdraw(2), Balance()} {
		if !c.Total(inv) {
			t.Errorf("%s should be total", inv)
		}
		if !c.Deterministic(inv) {
			t.Errorf("%s should be deterministic", inv)
		}
	}
}

// TestBAInvocationLemmas verifies FCI = RBCI = CI on the bank account
// (Lemmas 15 and 16).
func TestBAInvocationLemmas(t *testing.T) {
	ba := DefaultBankAccount()
	c := ba.Checker()
	invs := []spec.Invocation{Deposit(1), Deposit(2), Withdraw(1), Withdraw(2), Balance()}
	for _, i := range invs {
		for _, j := range invs {
			fci := c.FCI(i, j)
			rbci := c.RBCI(i, j)
			ci, err := c.CI(i, j)
			if err != nil {
				t.Fatalf("CI(%s,%s): %v", i, j, err)
			}
			if fci != ci {
				t.Errorf("Lemma 15 failed: FCI(%s,%s)=%v, CI=%v", i, j, fci, ci)
			}
			if rbci != ci {
				t.Errorf("Lemma 16 failed: RBCI(%s,%s)=%v, CI=%v", i, j, rbci, ci)
			}
		}
	}
}

// TestBAResultSensitivity: the paper's Section 8.2 point that
// invocation-based locking loses concurrency on the bank account — the
// withdraw invocation must conflict with deposit (because the failed case
// does) even though successful withdrawals commute forward with deposits.
func TestBAResultSensitivity(t *testing.T) {
	ba := DefaultBankAccount()
	c := ba.Checker()
	if c.FCI(Withdraw(2), Deposit(1)) {
		t.Error("withdraw invocation should not FCI-commute with deposit (the failed case blocks it)")
	}
	if !c.CommuteForward(WithdrawOk(2), DepositOk(1)) {
		t.Error("yet the successful withdrawal operation commutes forward with deposit")
	}
}

func TestBAMachineApply(t *testing.T) {
	m := DefaultBankAccount().Machine()
	v := m.Init()
	for _, c := range []struct {
		inv  spec.Invocation
		want spec.Response
	}{{Deposit(5), "ok"}, {Withdraw(3), "ok"}, {Balance(), "2"}, {Withdraw(3), "no"}} {
		if res := mustStep(t, m, v, c.inv); res != c.want {
			t.Fatalf("%s = %v, want %v", c.inv, res, c.want)
		}
	}
	if v.Encode() != "2" {
		t.Errorf("final state = %s, want 2", v.Encode())
	}
}

func TestBAMachineUndo(t *testing.T) {
	m := DefaultBankAccount().Machine()
	v := m.Init()
	mustStep(t, m, v, Deposit(5))
	if err := m.Undo(v, DepositOk(5)); err != nil || v.Encode() != "0" {
		t.Fatalf("undo deposit: %v %v", v.Encode(), err)
	}
	mustStep(t, m, v, Deposit(5))
	mustStep(t, m, v, Withdraw(2))
	if err := m.Undo(v, WithdrawOk(2)); err != nil || v.Encode() != "5" {
		t.Fatalf("undo withdraw: %v %v", v.Encode(), err)
	}
	if err := m.Undo(v, WithdrawNo(9)); err != nil || v.Encode() != "5" {
		t.Fatalf("undo failed withdraw should be a no-op: %v %v", v.Encode(), err)
	}
}

// TestBAMachineRefinesSpec: every execution of the runtime machine is legal
// in the window specification (as long as it stays within the window).
func TestBAMachineRefinesSpec(t *testing.T) {
	ba := DefaultBankAccount()
	checkRefines(t, ba.Machine(), ba.Spec(), []spec.Invocation{
		Deposit(3), Withdraw(1), Balance(), Deposit(2), Withdraw(9),
		Balance(), Withdraw(4), Deposit(1), Balance(),
	})
}

// TestStabilityAcrossWindowSizes: growing the window does not change the
// derived relations on the shared alphabet — evidence that the bounded
// window faithfully represents the unbounded account for these checks.
func TestStabilityAcrossWindowSizes(t *testing.T) {
	small := BankAccount{MaxBalance: 12, Amounts: []int{1, 2, 3}}
	big := BankAccount{MaxBalance: 20, Amounts: []int{1, 2, 3}}
	cs, cb := small.Checker(), big.Checker()
	ops := []spec.Operation{DepositOk(2), WithdrawOk(2), WithdrawNo(2), BalanceIs(3)}
	for _, p := range ops {
		for _, q := range ops {
			if cs.CommuteForward(p, q) != cb.CommuteForward(p, q) {
				t.Errorf("FC(%s,%s) unstable across windows", p, q)
			}
			if cs.RightCommutesBackward(p, q) != cb.RightCommutesBackward(p, q) {
				t.Errorf("RBC(%s,%s) unstable across windows", p, q)
			}
		}
	}
}

// IsRead reports whether the operation is read-only for the given type by
// consulting the type's RW relation: an operation is a read iff it does not
// conflict with itself under RW.
func IsRead(t Type, op spec.Operation) bool {
	return !t.RW().Conflicts(op, op)
}

func TestIsRead(t *testing.T) {
	ba := DefaultBankAccount()
	if !IsRead(ba, BalanceIs(3)) {
		t.Error("balance should be a read")
	}
	if IsRead(ba, DepositOk(1)) {
		t.Error("deposit should not be a read")
	}
}
