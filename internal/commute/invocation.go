package commute

import (
	"fmt"

	"repro/internal/spec"
)

// Total reports whether invocation I is total: for every legal operation
// sequence α there is at least one response R with α·[I,R] legal
// (paper, Section 8.2.1). Quantification over α reduces to quantification
// over reachable state sets.
func (c *Checker) Total(inv spec.Invocation) bool {
	responses := spec.Responses(c.e, inv)
	for _, entry := range c.reachableSets() {
		if !c.alphaAllowed(entry.states) {
			continue
		}
		enabled := false
		for _, r := range responses {
			if len(c.step(entry.states, spec.Op(inv, r))) > 0 {
				enabled = true
				break
			}
		}
		if !enabled {
			return false
		}
	}
	return true
}

// Deterministic reports whether invocation I is deterministic: for every
// legal α there is at most one response R with α·[I,R] legal.
func (c *Checker) Deterministic(inv spec.Invocation) bool {
	responses := spec.Responses(c.e, inv)
	for _, entry := range c.reachableSets() {
		if !c.alphaAllowed(entry.states) {
			continue
		}
		count := 0
		for _, r := range responses {
			if len(c.step(entry.states, spec.Op(inv, r))) > 0 {
				count++
				if count > 1 {
					return false
				}
			}
		}
	}
	return true
}

// FCI reports whether invocation I commutes forward with invocation J:
// for all responses Q and R, [I,Q] commutes forward with [J,R]
// (paper, Section 8.2.1).
func (c *Checker) FCI(i, j spec.Invocation) bool {
	for _, q := range spec.Responses(c.e, i) {
		for _, r := range spec.Responses(c.e, j) {
			if !c.CommuteForward(spec.Op(i, q), spec.Op(j, r)) {
				return false
			}
		}
	}
	return true
}

// RBCI reports whether invocation I right commutes backward with J:
// for all responses Q and R, [I,Q] right commutes backward with [J,R].
func (c *Checker) RBCI(i, j spec.Invocation) bool {
	for _, q := range spec.Responses(c.e, i) {
		for _, r := range spec.Responses(c.e, j) {
			if !c.RightCommutesBackward(spec.Op(i, q), spec.Op(j, r)) {
				return false
			}
		}
	}
	return true
}

// CI reports whether invocations I and J commute in the sense of
// Section 8.2.1: for every legal α, I(J(α)) ≈ J(I(α)), R(I,α) = R(I,J(α)),
// and R(J,α) = R(J,I(α)). The definition presupposes I and J are total and
// deterministic; CI returns an error if they are not.
func (c *Checker) CI(i, j spec.Invocation) (bool, error) {
	for _, inv := range []spec.Invocation{i, j} {
		if !c.Total(inv) {
			return false, fmt.Errorf("commute: CI(%s,%s): invocation %s is not total", i, j, inv)
		}
		if !c.Deterministic(inv) {
			return false, fmt.Errorf("commute: CI(%s,%s): invocation %s is not deterministic", i, j, inv)
		}
	}
	for _, entry := range c.reachableSets() {
		if !c.alphaAllowed(entry.states) {
			continue
		}
		ri, oki := c.uniqueResponse(entry.states, i)
		rj, okj := c.uniqueResponse(entry.states, j)
		if !oki || !okj {
			// Unreachable given totality, but keep the checker total itself.
			return false, fmt.Errorf("commute: CI(%s,%s): missing unique response", i, j)
		}
		si := c.step(entry.states, spec.Op(i, ri))
		sj := c.step(entry.states, spec.Op(j, rj))
		// Response of I must be insensitive to executing J first, and
		// conversely.
		riAfterJ, _ := c.uniqueResponse(sj, i)
		rjAfterI, _ := c.uniqueResponse(si, j)
		if riAfterJ != ri || rjAfterI != rj {
			return false, nil
		}
		sij := c.step(si, spec.Op(j, rjAfterI))
		sji := c.step(sj, spec.Op(i, riAfterJ))
		if _, found := c.distinguishingSuffix(sij, sji); found {
			return false, nil
		}
		if _, found := c.distinguishingSuffix(sji, sij); found {
			return false, nil
		}
	}
	return true, nil
}

func (c *Checker) uniqueResponse(states []string, inv spec.Invocation) (spec.Response, bool) {
	var res spec.Response
	found := false
	for _, r := range spec.Responses(c.e, inv) {
		if len(c.step(states, spec.Op(inv, r))) > 0 {
			if found {
				return "", false
			}
			res = r
			found = true
		}
	}
	return res, found
}

// InvocationRelation is a binary relation on invocations, the basis of
// invocation-based locking (paper, Section 8.2).
type InvocationRelation interface {
	Name() string
	Conflicts(requested, held spec.Invocation) bool
}

// InvocationRelationFunc adapts a function to an InvocationRelation.
type InvocationRelationFunc struct {
	RelName string
	F       func(requested, held spec.Invocation) bool
}

// Name implements InvocationRelation.
func (r InvocationRelationFunc) Name() string { return r.RelName }

// Conflicts implements InvocationRelation.
func (r InvocationRelationFunc) Conflicts(requested, held spec.Invocation) bool {
	return r.F(requested, held)
}

// LiftInvocationRelation lifts a relation RI on invocations to the relation
// RI_op on operations: ([I,Q],[J,R]) ∈ RI_op iff (I,J) ∈ RI
// (paper, Section 8.2). All operations with the same invocation get
// identical conflicts — locks no longer depend on results.
func LiftInvocationRelation(ri InvocationRelation) Relation {
	return RelationFunc{
		RelName: ri.Name() + "_op",
		F: func(p, q spec.Operation) bool {
			return ri.Conflicts(p.Inv, q.Inv)
		},
	}
}

// NFCIRelation derives the complement of FCI as an invocation relation.
func (c *Checker) NFCIRelation() InvocationRelation {
	cache := make(map[[2]spec.Invocation]bool)
	return InvocationRelationFunc{
		RelName: "NFCI(" + c.e.Name() + ")",
		F: func(i, j spec.Invocation) bool {
			k := [2]spec.Invocation{i, j}
			if v, ok := cache[k]; ok {
				return v
			}
			v := !c.FCI(i, j)
			cache[k] = v
			return v
		},
	}
}

// NRBCIRelation derives the complement of RBCI as an invocation relation.
func (c *Checker) NRBCIRelation() InvocationRelation {
	cache := make(map[[2]spec.Invocation]bool)
	return InvocationRelationFunc{
		RelName: "NRBCI(" + c.e.Name() + ")",
		F: func(i, j spec.Invocation) bool {
			k := [2]spec.Invocation{i, j}
			if v, ok := cache[k]; ok {
				return v
			}
			v := !c.RBCI(i, j)
			cache[k] = v
			return v
		},
	}
}
