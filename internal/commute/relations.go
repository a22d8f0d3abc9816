package commute

import (
	"fmt"
	"strings"

	"repro/internal/spec"
)

// FCViolation witnesses (P, Q) ∈ NFC(Spec): a prefix Alpha after which both
// P and Q are legal, yet either Alpha·P·Q is illegal, or the two orders are
// distinguishable by the suffix Rho. These are exactly the ingredients of
// the only-if construction in Theorem 10.
type FCViolation struct {
	P, Q  spec.Operation
	Alpha spec.Seq
	// PQIllegal reports the first failure mode: Alpha·P·Q ∉ Spec.
	PQIllegal bool
	// When !PQIllegal, equieffectiveness fails: Alpha·First·Second·Rho is
	// legal while the opposite order followed by Rho is not. LegalFirst and
	// LegalSecond give the legal order.
	LegalFirst, LegalSecond spec.Operation
	Rho                     spec.Seq
}

// String summarizes the violation.
func (v *FCViolation) String() string {
	if v.PQIllegal {
		return fmt.Sprintf("NFC(%s,%s): after α=%s both legal but α·P·Q illegal",
			v.P, v.Q, v.Alpha)
	}
	return fmt.Sprintf("NFC(%s,%s): after α=%s orders distinguished by ρ=%s (legal order %s·%s)",
		v.P, v.Q, v.Alpha, v.Rho, v.LegalFirst, v.LegalSecond)
}

// RBCViolation witnesses (P, Q) ∈ NRBC(Spec): a prefix Alpha and suffix Rho
// with Alpha·Q·P·Rho legal but Alpha·P·Q·Rho illegal — the ingredients of
// the only-if construction in Theorem 9.
type RBCViolation struct {
	P, Q  spec.Operation
	Alpha spec.Seq
	Rho   spec.Seq
}

// String summarizes the violation.
func (v *RBCViolation) String() string {
	return fmt.Sprintf("NRBC(%s,%s): α=%s, ρ=%s (α·Q·P·ρ legal, α·P·Q·ρ illegal)",
		v.P, v.Q, v.Alpha, v.Rho)
}

// CommuteForward reports whether P and Q commute forward with respect to
// the spec (paper, Section 6.2): for every α with αP ∈ Spec and αQ ∈ Spec,
// αPQ ≈ αQP and αPQ ∈ Spec.
func (c *Checker) CommuteForward(p, q spec.Operation) bool {
	_, found := c.FCViolationWitness(p, q)
	return !found
}

// FCViolationWitness searches for a witness that (P, Q) ∈ NFC(Spec).
func (c *Checker) FCViolationWitness(p, q spec.Operation) (*FCViolation, bool) {
	for _, entry := range c.reachableSets() {
		if !c.alphaAllowed(entry.states) {
			continue
		}
		sp := c.step(entry.states, p)
		sq := c.step(entry.states, q)
		if len(sp) == 0 || len(sq) == 0 {
			continue
		}
		spq := c.step(sp, q)
		sqp := c.step(sq, p)
		if len(spq) == 0 {
			return &FCViolation{P: p, Q: q, Alpha: entry.witness, PQIllegal: true}, true
		}
		// Equieffectiveness of αPQ and αQP, decided on the state sets.
		if rho, found := c.distinguishingSuffix(spq, sqp); found {
			return &FCViolation{
				P: p, Q: q, Alpha: entry.witness,
				LegalFirst: p, LegalSecond: q, Rho: rho,
			}, true
		}
		if rho, found := c.distinguishingSuffix(sqp, spq); found {
			return &FCViolation{
				P: p, Q: q, Alpha: entry.witness,
				LegalFirst: q, LegalSecond: p, Rho: rho,
			}, true
		}
	}
	return nil, false
}

// RightCommutesBackward reports whether P right commutes backward with Q
// (paper, Section 6.3): for every α, αQP ≲ αPQ. Note the relation is not
// symmetric.
func (c *Checker) RightCommutesBackward(p, q spec.Operation) bool {
	_, found := c.RBCViolationWitness(p, q)
	return !found
}

// RBCViolationWitness searches for a witness that (P, Q) ∈ NRBC(Spec),
// i.e. that P does not right commute backward with Q.
func (c *Checker) RBCViolationWitness(p, q spec.Operation) (*RBCViolation, bool) {
	for _, entry := range c.reachableSets() {
		if !c.alphaAllowed(entry.states) {
			continue
		}
		sqp := c.run(entry.states, spec.Seq{q, p})
		if len(sqp) == 0 {
			continue // αQP illegal: trivially ≲ everything.
		}
		spq := c.run(entry.states, spec.Seq{p, q})
		if rho, found := c.distinguishingSuffix(sqp, spq); found {
			return &RBCViolation{P: p, Q: q, Alpha: entry.witness, Rho: rho}, true
		}
	}
	return nil, false
}

// Relation is a binary relation on operations used as a conflict relation.
// Conflicts(requested, held) reports whether the newly requested operation
// conflicts with an operation already executed by another active
// transaction. Relations need not be symmetric (NRBC generally is not).
type Relation interface {
	Name() string
	Conflicts(requested, held spec.Operation) bool
}

// RelationFunc adapts a function to a Relation.
type RelationFunc struct {
	RelName string
	F       func(requested, held spec.Operation) bool
}

// Name implements Relation.
func (r RelationFunc) Name() string { return r.RelName }

// Conflicts implements Relation.
func (r RelationFunc) Conflicts(requested, held spec.Operation) bool {
	return r.F(requested, held)
}

// NFCRelation derives the NFC(Spec) conflict relation from the checker,
// memoized per operation pair. Theorem 10: these are exactly the conflicts
// deferred-update recovery requires.
func (c *Checker) NFCRelation() Relation {
	cache := make(map[[2]spec.Operation]bool)
	return RelationFunc{
		RelName: "NFC(" + c.e.Name() + ")",
		F: func(p, q spec.Operation) bool {
			k := [2]spec.Operation{p, q}
			if v, ok := cache[k]; ok {
				return v
			}
			v := !c.CommuteForward(p, q)
			cache[k] = v
			return v
		},
	}
}

// NRBCRelation derives the NRBC(Spec) conflict relation from the checker,
// memoized per operation pair. Theorem 9: these are exactly the conflicts
// update-in-place recovery requires.
func (c *Checker) NRBCRelation() Relation {
	cache := make(map[[2]spec.Operation]bool)
	return RelationFunc{
		RelName: "NRBC(" + c.e.Name() + ")",
		F: func(p, q spec.Operation) bool {
			k := [2]spec.Operation{p, q}
			if v, ok := cache[k]; ok {
				return v
			}
			v := !c.RightCommutesBackward(p, q)
			cache[k] = v
			return v
		},
	}
}

// SymmetricClosure returns the least symmetric relation containing r.
// The paper notes (Section 6.3) that forcing symmetry on NRBC adds
// unnecessary conflicts; the ablation benchmarks quantify that.
func SymmetricClosure(r Relation) Relation {
	return RelationFunc{
		RelName: "sym(" + r.Name() + ")",
		F: func(p, q spec.Operation) bool {
			return r.Conflicts(p, q) || r.Conflicts(q, p)
		},
	}
}

// Table is a rendered conflict/commutativity table over a fixed operation
// list, in the style of Figures 6.1 and 6.2 of the paper: Marked[i][j]
// reports that (Ops[i], Ops[j]) is in the relation (an "x" in the figure).
type Table struct {
	Title  string
	Ops    []spec.Operation
	Marked [][]bool
}

// BuildTable evaluates rel over ops × ops.
func BuildTable(title string, rel Relation, ops []spec.Operation) *Table {
	marked := make([][]bool, len(ops))
	for i, p := range ops {
		marked[i] = make([]bool, len(ops))
		for j, q := range ops {
			marked[i][j] = rel.Conflicts(p, q)
		}
	}
	return &Table{Title: title, Ops: ops, Marked: marked}
}

// Render prints the table in ASCII, rows and columns labelled by operation.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	width := 0
	labels := make([]string, len(t.Ops))
	for i, op := range t.Ops {
		labels[i] = op.String()
		if len(labels[i]) > width {
			width = len(labels[i])
		}
	}
	pad := func(s string, w int) string {
		if len(s) >= w {
			return s
		}
		return s + strings.Repeat(" ", w-len(s))
	}
	b.WriteString(pad("", width+2))
	for _, l := range labels {
		b.WriteString(pad(l, width+2))
	}
	b.WriteString("\n")
	for i, l := range labels {
		b.WriteString(pad(l, width+2))
		for j := range labels {
			mark := ""
			if t.Marked[i][j] {
				mark = "x"
			}
			b.WriteString(pad(mark, width+2))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Equal reports whether two tables mark exactly the same cells over the
// same operations.
func (t *Table) Equal(u *Table) bool {
	if len(t.Ops) != len(u.Ops) {
		return false
	}
	for i := range t.Ops {
		if t.Ops[i] != u.Ops[i] {
			return false
		}
		for j := range t.Ops {
			if t.Marked[i][j] != u.Marked[i][j] {
				return false
			}
		}
	}
	return true
}
