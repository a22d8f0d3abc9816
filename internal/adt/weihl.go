package adt

import "repro/internal/spec"

// This file reconstructs the exact specifications Weihl uses in
// Section 8.2.2 to separate the invocation-level relations FCI and RBCI
// when invocations may be partial or nondeterministic, including the
// six-state automaton of Table I (Section 8.2.2.3) demonstrating that the
// effects are non-local.

// InvI, InvJ, InvK are the abstract invocations of Section 8.2.2.
var (
	InvI = spec.NewInvocation("I")
	InvJ = spec.NewInvocation("J")
	InvK = spec.NewInvocation("K")
)

// Abstract operations used by the mini-specs.
var (
	OpIQ = spec.Op(InvI, "Q")
	OpIR = spec.Op(InvI, "R")
	OpJR = spec.Op(InvJ, "R")
	OpJQ = spec.Op(InvJ, "Q")
	OpJT = spec.Op(InvJ, "T")
	OpKS = spec.Op(InvK, "S")
)

// PartialSpecA is the first example of Section 8.2.2.1: the legal operation
// sequences are exactly Λ, [I,Q], and [J,R] — either operation can execute
// in the initial state, but nothing can execute after that. It witnesses
// RBCI ⊄ FCI for partial deterministic invocations: (I,J) ∈ RBCI (both
// two-operation sequences are illegal, hence vacuously equieffective) but
// (I,J) ∉ FCI.
func PartialSpecA() *spec.Automaton {
	a := spec.NewAutomaton("weihl-partial-a", "0")
	a.AddTransition("0", OpIQ, "1")
	a.AddTransition("0", OpJR, "2")
	return a.Freeze()
}

// PartialSpecB is the second example of Section 8.2.2.1: the legal
// sequences are the prefixes of [J,R]·[I,Q] — J only in the initial state,
// I only immediately after J. It witnesses FCI ⊄ RBCI: (I,J) ∈ FCI (at
// least one of I, J is illegal in every state, so forward commutativity is
// vacuous) but (I,J) ∉ RBCI ([J,R]·[I,Q] is legal while [I,Q]·[J,R] is
// not).
func PartialSpecB() *spec.Automaton {
	a := spec.NewAutomaton("weihl-partial-b", "0")
	a.AddTransition("0", OpJR, "1")
	a.AddTransition("1", OpIQ, "2")
	return a.Freeze()
}

// NondetSpecC is the first example of Section 8.2.2.2: the legal sequences
// are ([I,Q]|[J,Q])* ∪ ([I,R]|[J,R])* — the first operation makes a
// nondeterministic choice of result for itself and all subsequent
// operations. Both invocations are total but nondeterministic. It
// witnesses RBCI ⊄ FCI for nondeterministic total invocations.
func NondetSpecC() *spec.Automaton {
	a := spec.NewAutomaton("weihl-nondet-c", "s")
	a.AddTransition("s", OpIQ, "q")
	a.AddTransition("s", OpJQ, "q")
	a.AddTransition("q", OpIQ, "q")
	a.AddTransition("q", OpJQ, "q")
	a.AddTransition("s", OpIR, "r")
	a.AddTransition("s", OpJR, "r")
	a.AddTransition("r", OpIR, "r")
	a.AddTransition("r", OpJR, "r")
	return a.Freeze()
}

// NondetSpecD is the second example of Section 8.2.2.2: the legal sequences
// are [I,Q]*·[J,T]·([I,Q]|[I,R]|[J,T])* — I has the single result Q until J
// has been invoked; afterwards I has two possible results Q and R. It
// witnesses FCI ⊄ RBCI: (I,J) ∈ FCI but [J,T]·[I,R] is legal while
// [I,R]·[J,T] is not.
func NondetSpecD() *spec.Automaton {
	a := spec.NewAutomaton("weihl-nondet-d", "pre")
	a.AddTransition("pre", OpIQ, "pre")
	a.AddTransition("pre", OpJT, "post")
	a.AddTransition("post", OpIQ, "post")
	a.AddTransition("post", OpIR, "post")
	a.AddTransition("post", OpJT, "post")
	return a.Freeze()
}

// TableISpec is the six-state automaton of Table I (Section 8.2.2.3).
// I and J are total and deterministic (response Q and R respectively in
// every state); K is partial and deterministic, legal only in state 4 with
// response S. Executing J then I from state 0 yields state 5, while I then
// J yields state 4, and state 5 looks like state 4 but not conversely
// (K distinguishes them). Consequences verified in tests: I right commutes
// backward with J, J does not right commute backward with I, and
// (I, J) ∉ CI even though both are total and deterministic — the partial
// invocation K makes the divergence non-local.
func TableISpec() *spec.Automaton {
	a := spec.NewAutomaton("weihl-table-1", "0")
	type row struct {
		s, i, j string
		k       string // empty = K illegal
	}
	rows := []row{
		{s: "0", i: "1", j: "2"},
		{s: "1", i: "3", j: "4"},
		{s: "2", i: "5", j: "3"},
		{s: "3", i: "3", j: "3"},
		{s: "4", i: "3", j: "3", k: "4"},
		{s: "5", i: "3", j: "3"},
	}
	for _, r := range rows {
		a.AddTransition(r.s, OpIQ, r.i)
		a.AddTransition(r.s, OpJR, r.j)
		if r.k != "" {
			a.AddTransition(r.s, OpKS, r.k)
		}
	}
	return a.Freeze()
}
