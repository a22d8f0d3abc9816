package adt

import (
	"testing"

	"repro/internal/commute"
	"repro/internal/spec"
)

// TestPartialSpecA reproduces Section 8.2.2.1's first example: with partial
// deterministic invocations, RBCI need not be contained in FCI.
func TestPartialSpecA(t *testing.T) {
	sp := PartialSpecA()
	c := commute.NewChecker(sp)
	// Sanity: the language is exactly {Λ, [I,Q], [J,R]}.
	if !sp.Legal(spec.Seq{OpIQ}) || !sp.Legal(spec.Seq{OpJR}) {
		t.Fatal("single operations should be legal")
	}
	if sp.Legal(spec.Seq{OpIQ, OpJR}) || sp.Legal(spec.Seq{OpJR, OpIQ}) {
		t.Fatal("no two-operation sequence is legal")
	}
	// I and J are partial (illegal after the first operation) but
	// deterministic.
	if c.Total(InvI) || c.Total(InvJ) {
		t.Error("I and J should be partial")
	}
	if !c.Deterministic(InvI) || !c.Deterministic(InvJ) {
		t.Error("I and J should be deterministic")
	}
	// (I,J) ∈ RBCI but (I,J) ∉ FCI.
	if !c.RBCI(InvI, InvJ) {
		t.Error("I should right-commute-backward with J (all two-op sequences illegal)")
	}
	if c.FCI(InvI, InvJ) {
		t.Error("I should not forward-commute with J")
	}
}

// TestPartialSpecB reproduces Section 8.2.2.1's second example: FCI need
// not be contained in RBCI.
func TestPartialSpecB(t *testing.T) {
	sp := PartialSpecB()
	c := commute.NewChecker(sp)
	if !sp.Legal(spec.Seq{OpJR, OpIQ}) {
		t.Fatal("[J,R]·[I,Q] should be legal")
	}
	if sp.Legal(spec.Seq{OpIQ}) {
		t.Fatal("[I,Q] should be illegal in the initial state")
	}
	if !c.FCI(InvI, InvJ) {
		t.Error("(I,J) should be in FCI (at least one is illegal in every state)")
	}
	if c.RBCI(InvI, InvJ) {
		t.Error("(I,J) should not be in RBCI ([J,R]·[I,Q] legal, [I,Q]·[J,R] illegal)")
	}
}

// TestNondetSpecC reproduces Section 8.2.2.2's first example: with
// nondeterministic total invocations, RBCI ⊄ FCI.
func TestNondetSpecC(t *testing.T) {
	sp := NondetSpecC()
	c := commute.NewChecker(sp)
	// I and J are total but nondeterministic.
	for _, inv := range []spec.Invocation{InvI, InvJ} {
		if !c.Total(inv) {
			t.Errorf("%s should be total", inv)
		}
		if c.Deterministic(inv) {
			t.Errorf("%s should be nondeterministic", inv)
		}
	}
	// (I,J) ∉ FCI: [I,Q] and [J,R] are each legal initially, but no
	// sequence containing both is legal.
	if c.FCI(InvI, InvJ) {
		t.Error("(I,J) should not be in FCI")
	}
	if !c.CommuteForward(OpIQ, OpJQ) {
		t.Error("[I,Q] and [J,Q] should commute forward")
	}
	if c.CommuteForward(OpIQ, OpJR) {
		t.Error("[I,Q] and [J,R] should not commute forward")
	}
	// (I,J) ∈ RBCI: in any legal α[J,y][I,x], x = y, and swapping is legal
	// and equieffective.
	if !c.RBCI(InvI, InvJ) {
		t.Error("(I,J) should be in RBCI")
	}
}

// TestNondetSpecD reproduces Section 8.2.2.2's second example: FCI ⊄ RBCI
// for nondeterministic invocations.
func TestNondetSpecD(t *testing.T) {
	sp := NondetSpecD()
	c := commute.NewChecker(sp)
	if !c.FCI(InvI, InvJ) {
		t.Error("(I,J) should be in FCI")
	}
	if c.RBCI(InvI, InvJ) {
		t.Error("(I,J) should not be in RBCI")
	}
	// The paper's witness: [J,T]·[I,R] is legal but [I,R]·[J,T] is not.
	if !sp.Legal(spec.Seq{OpJT, OpIR}) {
		t.Error("[J,T]·[I,R] should be legal")
	}
	if sp.Legal(spec.Seq{OpIR, OpJT}) {
		t.Error("[I,R]·[J,T] should be illegal")
	}
}

// TestTableI reproduces Table I (Section 8.2.2.3): the non-local effect of
// a partial invocation on two total, deterministic invocations.
func TestTableI(t *testing.T) {
	sp := TableISpec()
	c := commute.NewChecker(sp)
	// I and J are total and deterministic; K is partial.
	for _, inv := range []spec.Invocation{InvI, InvJ} {
		if !c.Total(inv) {
			t.Errorf("%s should be total", inv)
		}
		if !c.Deterministic(inv) {
			t.Errorf("%s should be deterministic", inv)
		}
	}
	if c.Total(InvK) {
		t.Error("K should be partial")
	}
	if !c.Deterministic(InvK) {
		t.Error("K should be deterministic")
	}
	// State 5 looks like state 4 but not vice versa: J·I reaches 5, I·J
	// reaches 4, and only state 4 enables K.
	ji := spec.Seq{OpJR, OpIQ} // reaches state 5
	ij := spec.Seq{OpIQ, OpJR} // reaches state 4
	if !c.LooksLike(ji, ij) {
		t.Error("J·I (state 5) should look like I·J (state 4)")
	}
	if c.LooksLike(ij, ji) {
		t.Error("I·J (state 4) should not look like J·I (state 5): K distinguishes")
	}
	// I right commutes backward with J, but not vice versa.
	if !c.RightCommutesBackward(OpIQ, OpJR) {
		t.Error("I should right-commute-backward with J")
	}
	if c.RightCommutesBackward(OpJR, OpIQ) {
		t.Error("J should not right-commute-backward with I")
	}
	// Yet (I,J) ∉ CI: in state 0 the two orders are not equieffective.
	ci, err := c.CI(InvI, InvJ)
	if err != nil {
		t.Fatalf("CI: %v", err)
	}
	if ci {
		t.Error("(I,J) should not commute (CI) on the Table I automaton")
	}
	// Lemma 17 still holds: FCI = CI for total deterministic I, J even with
	// a partial K present.
	if c.FCI(InvI, InvJ) != ci {
		t.Error("Lemma 17 violated: FCI(I,J) must equal CI(I,J)")
	}
}

// TestTableINondet reproduces the nondeterministic modification at the end
// of Section 8.2.2.3: a total-but-nondeterministic K causes the same
// non-local divergence.
func TestTableINondet(t *testing.T) {
	sp := TableINondetSpec()
	c := commute.NewChecker(sp)
	if !c.Total(InvK) {
		t.Error("K should be total in the nondeterministic variant")
	}
	if c.Deterministic(InvK) {
		t.Error("K should be nondeterministic in state 4")
	}
	ji := spec.Seq{OpJR, OpIQ}
	ij := spec.Seq{OpIQ, OpJR}
	if !c.LooksLike(ji, ij) || c.LooksLike(ij, ji) {
		t.Error("state 5 should look like state 4 but not conversely")
	}
	if !c.RightCommutesBackward(OpIQ, OpJR) {
		t.Error("I should right-commute-backward with J")
	}
	ci, err := c.CI(InvI, InvJ)
	if err != nil {
		t.Fatalf("CI: %v", err)
	}
	if ci {
		t.Error("(I,J) should not commute (CI)")
	}
}

// TestCIImpliesRBCIForTotalDeterministic checks the converse noted at the
// very end of Section 8.2.2.3: if I and J are total and deterministic and
// (I,J) ∈ CI, then (I,J) ∈ RBCI, regardless of other invocations — here on
// the bank account and register, where CI pairs exist.
func TestCIImpliesRBCIForTotalDeterministic(t *testing.T) {
	ba := DefaultBankAccount()
	c := ba.Checker()
	pairs := [][2]spec.Invocation{
		{Deposit(1), Deposit(2)},
		{Withdraw(1), Balance()},
		{Deposit(2), Withdraw(3)},
	}
	for _, pr := range pairs {
		ci, err := c.CI(pr[0], pr[1])
		if err != nil {
			t.Fatalf("CI(%s,%s): %v", pr[0], pr[1], err)
		}
		if ci && !c.RBCI(pr[0], pr[1]) {
			t.Errorf("CI(%s,%s) holds but RBCI does not", pr[0], pr[1])
		}
	}
}

// OpKT is K's second result in TableINondetSpec.
var OpKT = spec.Op(InvK, "T")

// TableINondetSpec is the modification described at the end of
// Section 8.2.2.3: K becomes total and nondeterministic — in every state s,
// K leaves the state unchanged; in state 4 it has two possible results S
// and T, in all other states only S. As with the partial variant, state 5
// looks like state 4 but not conversely, so I right commutes backward with
// J while (I, J) ∉ CI, now caused by a nondeterministic (but total)
// invocation.
func TableINondetSpec() *spec.Automaton {
	a := spec.NewAutomaton("weihl-table-1-nondet", "0")
	type row struct {
		s, i, j string
	}
	rows := []row{
		{s: "0", i: "1", j: "2"},
		{s: "1", i: "3", j: "4"},
		{s: "2", i: "5", j: "3"},
		{s: "3", i: "3", j: "3"},
		{s: "4", i: "3", j: "3"},
		{s: "5", i: "3", j: "3"},
	}
	for _, r := range rows {
		a.AddTransition(r.s, OpIQ, r.i)
		a.AddTransition(r.s, OpJR, r.j)
		a.AddTransition(r.s, OpKS, r.s)
		if r.s == "4" {
			a.AddTransition(r.s, OpKT, r.s)
		}
	}
	return a.Freeze()
}
