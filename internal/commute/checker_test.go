package commute

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/spec"
)

func opA() spec.Operation { return spec.Op(spec.NewInvocation("a"), "ok") }
func opB() spec.Operation { return spec.Op(spec.NewInvocation("b"), "ok") }
func opC() spec.Operation { return spec.Op(spec.NewInvocation("c"), "ok") }

// chainSpec accepts prefixes of a·b·c.
func chainSpec() *spec.Automaton {
	m := spec.NewAutomaton("chain", "0")
	m.AddTransition("0", opA(), "1")
	m.AddTransition("1", opB(), "2")
	m.AddTransition("2", opC(), "3")
	return m.Freeze()
}

// diamondSpec accepts a·b and b·a converging on the same state, plus c
// afterwards (a fully commuting pair).
func diamondSpec() *spec.Automaton {
	m := spec.NewAutomaton("diamond", "00")
	m.AddTransition("00", opA(), "10")
	m.AddTransition("00", opB(), "01")
	m.AddTransition("10", opB(), "11")
	m.AddTransition("01", opA(), "11")
	m.AddTransition("11", opC(), "done")
	return m.Freeze()
}

func TestLegal(t *testing.T) {
	c := NewChecker(chainSpec())
	if !c.Legal(spec.Seq{opA(), opB()}) {
		t.Error("a·b should be legal")
	}
	if c.Legal(spec.Seq{opB()}) {
		t.Error("b should be illegal initially")
	}
}

func TestLooksLikeBasics(t *testing.T) {
	c := NewChecker(chainSpec())
	// An illegal sequence looks like everything.
	if !c.LooksLike(spec.Seq{opB()}, spec.Seq{opA()}) {
		t.Error("illegal α should look like anything")
	}
	// a·b does not look like a (c is enabled after a·b but not after a).
	if c.LooksLike(spec.Seq{opA(), opB()}, spec.Seq{opA()}) {
		t.Error("a·b should not look like a")
	}
	// Reflexivity on a legal sequence.
	if !c.LooksLike(spec.Seq{opA()}, spec.Seq{opA()}) {
		t.Error("looks-like should be reflexive")
	}
}

func TestLooksLikeAsymmetry(t *testing.T) {
	// After a: only c enabled. After b: c and d enabled. So a-state looks
	// like b-state but not conversely — mirroring the paper's state 5 ≲
	// state 4 example in miniature.
	opD := spec.Op(spec.NewInvocation("d"), "ok")
	m := spec.NewAutomaton("asym", "0")
	m.AddTransition("0", opA(), "sa")
	m.AddTransition("0", opB(), "sb")
	m.AddTransition("sa", opC(), "t")
	m.AddTransition("sb", opC(), "t")
	m.AddTransition("sb", opD, "t")
	m.Freeze()
	c := NewChecker(m)
	if !c.LooksLike(spec.Seq{opA()}, spec.Seq{opB()}) {
		t.Error("a should look like b")
	}
	if c.LooksLike(spec.Seq{opB()}, spec.Seq{opA()}) {
		t.Error("b should not look like a")
	}
	if c.Equieffective(spec.Seq{opA()}, spec.Seq{opB()}) {
		t.Error("a and b should not be equieffective")
	}
	suffix, found := c.DistinguishingSuffix(spec.Seq{opB()}, spec.Seq{opA()})
	if !found || len(suffix) != 1 || suffix[0] != opD {
		t.Errorf("distinguishing suffix = %v, want [d]", suffix)
	}
}

func TestEquieffectiveDiamond(t *testing.T) {
	c := NewChecker(diamondSpec())
	if !c.Equieffective(spec.Seq{opA(), opB()}, spec.Seq{opB(), opA()}) {
		t.Error("a·b and b·a converge and should be equieffective")
	}
}

func TestDistinguishingSuffixEmptySuffix(t *testing.T) {
	c := NewChecker(chainSpec())
	// a is legal, b is illegal: the empty suffix distinguishes them.
	suffix, found := c.DistinguishingSuffix(spec.Seq{opA()}, spec.Seq{opB()})
	if !found {
		t.Fatal("expected a distinguishing suffix")
	}
	if len(suffix) != 0 {
		t.Errorf("suffix = %v, want empty (α legal, β illegal)", suffix)
	}
}

// randomAutomaton builds a random automaton over a 2-3 op alphabet with up
// to 6 states. Used for property-style tests of the preorder laws.
func randomAutomaton(rng *rand.Rand) *spec.Automaton {
	states := []string{"0", "1", "2", "3", "4", "5"}[:2+rng.Intn(4)]
	alpha := []spec.Operation{opA(), opB(), opC()}[:2+rng.Intn(2)]
	m := spec.NewAutomaton("rand", "0")
	for _, s := range states {
		for _, op := range alpha {
			n := rng.Intn(3)
			for k := 0; k < n; k++ {
				m.AddTransition(s, op, states[rng.Intn(len(states))])
			}
		}
	}
	return m.Freeze()
}

func randomSeq(rng *rand.Rand, alpha []spec.Operation, maxLen int) spec.Seq {
	n := rng.Intn(maxLen + 1)
	out := make(spec.Seq, n)
	for i := range out {
		out[i] = alpha[rng.Intn(len(alpha))]
	}
	return out
}

// TestLooksLikeLaws property-tests Lemmas 3–7 of the paper on random
// automata: reflexivity, transitivity, legality preservation (Lemma 5), and
// right-congruence (Lemma 6: α ≲ β ⇒ αγ ≲ βγ).
func TestLooksLikeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		m := randomAutomaton(rng)
		c := NewChecker(m)
		alpha := m.Alphabet()
		if len(alpha) == 0 {
			continue
		}
		a := randomSeq(rng, alpha, 3)
		b := randomSeq(rng, alpha, 3)
		g := randomSeq(rng, alpha, 3)

		if !c.LooksLike(a, a) {
			t.Fatalf("reflexivity failed for %s on %v", a, m.Name())
		}
		// Lemma 5: if a legal and a ≲ b then b legal.
		if c.Legal(a) && c.LooksLike(a, b) && !c.Legal(b) {
			t.Fatalf("Lemma 5 failed: %s legal, %s ≲ %s, but %s illegal", a, a, b, b)
		}
		// Lemma 6: a ≲ b ⇒ a·γ ≲ b·γ.
		if c.LooksLike(a, b) {
			ag := append(slices.Clone(a), g...)
			bg := append(slices.Clone(b), g...)
			if !c.LooksLike(ag, bg) {
				t.Fatalf("Lemma 6 failed: %s ≲ %s but %s ⋠ %s", a, b, ag, bg)
			}
		}
		// Transitivity (Lemma 3).
		d := randomSeq(rng, alpha, 3)
		if c.LooksLike(a, b) && c.LooksLike(b, d) && !c.LooksLike(a, d) {
			t.Fatalf("transitivity failed: %s ≲ %s ≲ %s", a, b, d)
		}
	}
}

// TestDistinguishingSuffixIsValid property-tests that every reported
// distinguishing suffix γ really satisfies αγ legal and βγ illegal.
func TestDistinguishingSuffixIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		m := randomAutomaton(rng)
		c := NewChecker(m)
		alpha := m.Alphabet()
		if len(alpha) == 0 {
			continue
		}
		a := randomSeq(rng, alpha, 3)
		b := randomSeq(rng, alpha, 3)
		suffix, found := c.DistinguishingSuffix(a, b)
		if !found {
			continue
		}
		ag := append(slices.Clone(a), suffix...)
		bg := append(slices.Clone(b), suffix...)
		if !m.Legal(ag) {
			t.Fatalf("suffix invalid: α·γ = %s illegal", ag)
		}
		if m.Legal(bg) {
			t.Fatalf("suffix invalid: β·γ = %s legal", bg)
		}
	}
}

func TestReachableSetCount(t *testing.T) {
	c := NewChecker(chainSpec())
	// Deterministic chain: 4 singleton sets.
	if got := c.ReachableSetCount(); got != 4 {
		t.Errorf("ReachableSetCount = %d, want 4", got)
	}
}

func TestAlphaRestrictionLimitsQuantification(t *testing.T) {
	// Without restriction, (b,b) is NFC in the chain spec (b·b never legal
	// after any α where b legal... actually b is legal only at state 1 and
	// b·b illegal). With α restricted to exclude state 1, the FC check
	// becomes vacuous and reports commuting.
	m := chainSpec()
	free := NewChecker(m)
	if free.CommuteForward(opB(), opB()) {
		t.Error("b should not forward-commute with itself on the chain")
	}
	restricted := NewChecker(m, WithAlphaRestriction(func(states []string) bool {
		for _, s := range states {
			if s == "1" {
				return false
			}
		}
		return true
	}))
	if !restricted.CommuteForward(opB(), opB()) {
		t.Error("with state 1 excluded the FC check is vacuous")
	}
}

// ReachableSetCount returns the number of distinct reachable state sets
// (the size of the determinized state space). Useful for gauging checker
// cost in tests and benchmarks.
func (c *Checker) ReachableSetCount() int { return len(c.reachableSets()) }

// Legal reports whether seq is in the specification.
func (c *Checker) Legal(seq spec.Seq) bool {
	return len(c.run(sortedCopy(c.e.Initial()), seq)) > 0
}

// Equieffective reports α ≈ β: α ≲ β and β ≲ α (paper, Section 6.1).
func (c *Checker) Equieffective(alpha, beta spec.Seq) bool {
	return c.LooksLike(alpha, beta) && c.LooksLike(beta, alpha)
}

// DistinguishingSuffix returns a shortest γ such that αγ is legal but βγ is
// not, witnessing ¬(α ≲ β). The boolean reports whether such a suffix
// exists. A nil, true result means α itself is legal and β is not (γ = Λ).
func (c *Checker) DistinguishingSuffix(alpha, beta spec.Seq) (spec.Seq, bool) {
	sa := c.run(sortedCopy(c.e.Initial()), alpha)
	sb := c.run(sortedCopy(c.e.Initial()), beta)
	return c.distinguishingSuffix(sa, sb)
}
