package commute

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/spec"
)

// TestFCSymmetry property-tests Lemma 8: FC (and hence NFC) is symmetric,
// on random automata.
func TestFCSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		m := randomAutomaton(rng)
		c := NewChecker(m)
		ops := m.Alphabet()
		for _, p := range ops {
			for _, q := range ops {
				if c.CommuteForward(p, q) != c.CommuteForward(q, p) {
					t.Fatalf("FC not symmetric for (%s,%s) on random automaton", p, q)
				}
			}
		}
	}
}

// TestFCViolationWitnessValid property-tests that every FC violation
// witness satisfies its claims, checked against the raw spec legality.
func TestFCViolationWitnessValid(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		m := randomAutomaton(rng)
		c := NewChecker(m)
		ops := m.Alphabet()
		for _, p := range ops {
			for _, q := range ops {
				v, found := c.FCViolationWitness(p, q)
				if !found {
					continue
				}
				ap := append(slices.Clone(v.Alpha), p)
				aq := append(slices.Clone(v.Alpha), q)
				if !m.Legal(ap) || !m.Legal(aq) {
					t.Fatalf("witness α=%s must enable both %s and %s", v.Alpha, p, q)
				}
				if v.PQIllegal {
					apq := append(slices.Clone(ap), q)
					if m.Legal(apq) {
						t.Fatalf("witness claims α·P·Q illegal but %s is legal", apq)
					}
					continue
				}
				legal := append(append(slices.Clone(v.Alpha), v.LegalFirst, v.LegalSecond), v.Rho...)
				illegal := append(append(slices.Clone(v.Alpha), v.LegalSecond, v.LegalFirst), v.Rho...)
				if !m.Legal(legal) {
					t.Fatalf("witness legal order %s is illegal", legal)
				}
				if m.Legal(illegal) {
					t.Fatalf("witness illegal order %s is legal", illegal)
				}
			}
		}
	}
}

// TestRBCViolationWitnessValid property-tests RBC violation witnesses:
// α·Q·P·ρ legal, α·P·Q·ρ illegal.
func TestRBCViolationWitnessValid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 120; trial++ {
		m := randomAutomaton(rng)
		c := NewChecker(m)
		ops := m.Alphabet()
		for _, p := range ops {
			for _, q := range ops {
				v, found := c.RBCViolationWitness(p, q)
				if !found {
					continue
				}
				legal := append(append(slices.Clone(v.Alpha), q, p), v.Rho...)
				illegal := append(append(slices.Clone(v.Alpha), p, q), v.Rho...)
				if !m.Legal(legal) {
					t.Fatalf("witness α·Q·P·ρ = %s is illegal", legal)
				}
				if m.Legal(illegal) {
					t.Fatalf("witness α·P·Q·ρ = %s is legal", illegal)
				}
			}
		}
	}
}

// TestRBCDefinitionAgainstBruteForce cross-checks RightCommutesBackward
// against a brute-force enumeration of α and ρ up to length 4 on random
// automata: a disagreement in the brute-force-found direction is a checker
// bug (the checker must find every bounded violation).
func TestRBCDefinitionAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		m := randomAutomaton(rng)
		c := NewChecker(m)
		ops := m.Alphabet()
		var seqs []spec.Seq
		var gen func(prefix spec.Seq, depth int)
		gen = func(prefix spec.Seq, depth int) {
			seqs = append(seqs, slices.Clone(prefix))
			if depth == 0 {
				return
			}
			for _, op := range ops {
				gen(append(prefix, op), depth-1)
			}
		}
		gen(spec.Seq{}, 3)
		for _, p := range ops {
			for _, q := range ops {
				rbc := c.RightCommutesBackward(p, q)
				// Brute force: search for α, ρ with αQPρ legal, αPQρ illegal.
				violated := false
				for _, a := range seqs {
					aqp := append(append(slices.Clone(a), q), p)
					if !m.Legal(aqp) {
						continue
					}
					apq := append(append(slices.Clone(a), p), q)
					for _, r := range seqs {
						if m.Legal(append(slices.Clone(aqp), r...)) && !m.Legal(append(slices.Clone(apq), r...)) {
							violated = true
							break
						}
					}
					if violated {
						break
					}
				}
				if violated && rbc {
					t.Fatalf("brute force found RBC violation for (%s,%s) but checker says RBC", p, q)
				}
			}
		}
	}
}

func TestRelationCombinators(t *testing.T) {
	always := RelationFunc{RelName: "always", F: func(p, q spec.Operation) bool { return true }}
	never := RelationFunc{RelName: "never", F: func(p, q spec.Operation) bool { return false }}
	asym := RelationFunc{RelName: "asym", F: func(p, q spec.Operation) bool {
		return p == opA() && q == opB()
	}}
	u := Union("u", never, asym)
	if !u.Conflicts(opA(), opB()) || u.Conflicts(opB(), opA()) {
		t.Error("Union misbehaves")
	}
	s := SymmetricClosure(asym)
	if !s.Conflicts(opA(), opB()) || !s.Conflicts(opB(), opA()) {
		t.Error("SymmetricClosure misbehaves")
	}
	if s.Conflicts(opA(), opA()) {
		t.Error("SymmetricClosure added spurious conflicts")
	}
	if !always.Conflicts(opC(), opC()) {
		t.Error("always relation misbehaves")
	}
	if u.Name() != "u" || s.Name() != "sym(asym)" {
		t.Errorf("combinator names: %q, %q", u.Name(), s.Name())
	}
}

func TestBuildTableAndRender(t *testing.T) {
	c := NewChecker(chainSpec())
	ops := []spec.Operation{opA(), opB()}
	table := BuildTable("NFC(chain)", c.NFCRelation(), ops)
	if table.MarkedCount() == 0 {
		t.Error("chain spec should have NFC conflicts")
	}
	out := table.Render()
	if out == "" || len(out) < 10 {
		t.Errorf("Render output too short: %q", out)
	}
	same := BuildTable("again", c.NFCRelation(), ops)
	if !table.Equal(same) {
		t.Error("identical tables should be Equal")
	}
	other := BuildTable("rw", c.RWRelation(), ops)
	_ = other.Render()
}

func TestDerivedRelationsMemoize(t *testing.T) {
	c := NewChecker(chainSpec())
	rel := c.NFCRelation()
	// Same pair twice: second call must hit the cache and agree.
	first := rel.Conflicts(opA(), opB())
	second := rel.Conflicts(opA(), opB())
	if first != second {
		t.Error("memoized relation is inconsistent")
	}
}

// TestReadOperationsCommute verifies Lemmas 11 and 12 generically: on random
// automata, every pair of read operations is in FC and in RBC.
func TestReadOperationsCommute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		m := randomAutomaton(rng)
		c := NewChecker(m)
		var reads []spec.Operation
		for _, op := range m.Alphabet() {
			if c.ReadOperation(op) {
				reads = append(reads, op)
			}
		}
		for _, p := range reads {
			for _, q := range reads {
				if !c.CommuteForward(p, q) {
					t.Fatalf("Lemma 11 failed: read ops (%s,%s) not in FC", p, q)
				}
				if !c.RightCommutesBackward(p, q) {
					t.Fatalf("Lemma 12 failed: read ops (%s,%s) not in RBC", p, q)
				}
			}
		}
	}
}

// Union returns the relation that conflicts whenever any argument relation
// does.
func Union(name string, rels ...Relation) Relation {
	return RelationFunc{
		RelName: name,
		F: func(p, q spec.Operation) bool {
			for _, r := range rels {
				if r.Conflicts(p, q) {
					return true
				}
			}
			return false
		},
	}
}

// MarkedCount returns the number of marked (conflicting) cells.
func (t *Table) MarkedCount() int {
	n := 0
	for _, row := range t.Marked {
		for _, m := range row {
			if m {
				n++
			}
		}
	}
	return n
}

// RWRelation builds the classic read/write locking conflict relation of
// Section 8.1 for the spec: two operations conflict unless both are read
// operations. Lemmas 11 and 12 guarantee it contains both NFC and NRBC.
func (c *Checker) RWRelation() Relation {
	isRead := make(map[spec.Operation]bool)
	for _, op := range c.e.Alphabet() {
		isRead[op] = c.ReadOperation(op)
	}
	return RelationFunc{
		RelName: "RW(" + c.e.Name() + ")",
		F: func(p, q spec.Operation) bool {
			return !(isRead[p] && isRead[q])
		},
	}
}

// ReadOperation reports whether P is a read operation in the sense of
// Section 8.1: for every α with αP legal, αP ≈ α.
func (c *Checker) ReadOperation(p spec.Operation) bool {
	for _, entry := range c.reachableSets() {
		sp := c.step(entry.states, p)
		if len(sp) == 0 {
			continue
		}
		if _, found := c.distinguishingSuffix(sp, entry.states); found {
			return false
		}
		if _, found := c.distinguishingSuffix(entry.states, sp); found {
			return false
		}
	}
	return true
}
