// Package commute implements the equieffectiveness and commutativity theory
// of Weihl, "The Impact of Recovery on Concurrency Control" (JCSS 47, 1993),
// Section 6: the looks-like preorder (≲), equieffectiveness (≈), forward
// commutativity (FC) and right backward commutativity (RBC) on operations,
// and the invocation-level relations FCI, RBCI, and CI of Section 8.
//
// All procedures are exact for finite Enumerable specifications: sequences
// are tracked as reachable state sets (subset construction) and language
// inclusion is decided by a product search, so the quantifiers over
// "all operation sequences α" and "all suffixes" in the paper's definitions
// are discharged completely. For specs over unbounded state spaces the
// caller supplies a bounded window plus an α-restriction predicate; package
// adt pairs each such window with a closed-form analytic relation and the
// two are cross-checked in tests.
package commute

import (
	"sort"

	"repro/internal/spec"
)

// Checker decides the relations of Sections 6–8 for one Enumerable spec.
// It memoizes the subset construction; a Checker is not safe for concurrent
// use.
type Checker struct {
	e             spec.Enumerable
	restrictAlpha func(states []string) bool

	stepCache map[stepKey][]string

	reachOnce bool
	reach     []reachEntry
	reachByK  map[string]int
}

type stepKey struct {
	set string
	op  spec.Operation
}

type reachEntry struct {
	states  []string
	key     string
	witness spec.Seq // a shortest α reaching this state set from the initial set
}

// Option configures a Checker.
type Option func(*Checker)

// WithAlphaRestriction limits the quantification over prefixes α in the
// FC/RBC definitions to prefixes whose reachable state set satisfies the
// predicate. This is the escape hatch for bounded windows over unbounded
// state spaces: restrict α to the window's core so boundary states never
// participate as starting points, while suffix exploration still uses the
// full window.
func WithAlphaRestriction(pred func(states []string) bool) Option {
	return func(c *Checker) { c.restrictAlpha = pred }
}

// NewChecker builds a Checker for the spec.
func NewChecker(e spec.Enumerable, opts ...Option) *Checker {
	c := &Checker{
		e:         e,
		stepCache: make(map[stepKey][]string),
		reachByK:  make(map[string]int),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Spec returns the underlying specification.
func (c *Checker) Spec() spec.Enumerable { return c.e }

func (c *Checker) step(states []string, op spec.Operation) []string {
	k := stepKey{set: spec.StateSetKey(states), op: op}
	if v, ok := c.stepCache[k]; ok {
		return v
	}
	v := spec.Step(c.e, states, op)
	c.stepCache[k] = v
	return v
}

func (c *Checker) run(states []string, seq spec.Seq) []string {
	cur := states
	for _, op := range seq {
		cur = c.step(cur, op)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// reachableSets enumerates every state set reachable from the initial set
// in the determinized automaton, BFS order, with a shortest witness prefix
// for each. Every prefix α corresponds to exactly one such set, so
// quantification over α reduces to quantification over these sets.
func (c *Checker) reachableSets() []reachEntry {
	if c.reachOnce {
		return c.reach
	}
	c.reachOnce = true
	init := sortedCopy(c.e.Initial())
	if len(init) == 0 {
		return nil
	}
	start := reachEntry{states: init, key: spec.StateSetKey(init)}
	c.reach = append(c.reach, start)
	c.reachByK[start.key] = 0
	for i := 0; i < len(c.reach); i++ {
		cur := c.reach[i]
		for _, op := range c.e.Alphabet() {
			next := c.step(cur.states, op)
			if len(next) == 0 {
				continue
			}
			k := spec.StateSetKey(next)
			if _, ok := c.reachByK[k]; ok {
				continue
			}
			wit := make(spec.Seq, len(cur.witness), len(cur.witness)+1)
			copy(wit, cur.witness)
			wit = append(wit, op)
			c.reachByK[k] = len(c.reach)
			c.reach = append(c.reach, reachEntry{states: next, key: k, witness: wit})
		}
	}
	return c.reach
}

// LooksLike reports α ≲ β: every suffix legal after α is legal after β
// (paper, Section 6.1). Illegal α looks like everything.
func (c *Checker) LooksLike(alpha, beta spec.Seq) bool {
	sa := c.run(sortedCopy(c.e.Initial()), alpha)
	sb := c.run(sortedCopy(c.e.Initial()), beta)
	_, found := c.distinguishingSuffix(sa, sb)
	return !found
}

// distinguishingSuffix searches for a shortest suffix γ with
// step(sa, γ) ≠ ∅ and step(sb, γ) = ∅, by BFS over pairs of state sets.
// If sa is empty there is no such suffix (the empty language is included in
// everything).
func (c *Checker) distinguishingSuffix(sa, sb []string) (spec.Seq, bool) {
	if len(sa) == 0 {
		return nil, false
	}
	if len(sb) == 0 {
		return nil, true
	}
	type node struct {
		a, b []string
		path spec.Seq
	}
	startKey := spec.StateSetKey(sa) + "|" + spec.StateSetKey(sb)
	visited := map[string]bool{startKey: true}
	queue := []node{{a: sa, b: sb}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, op := range c.e.Alphabet() {
			ta := c.step(n.a, op)
			if len(ta) == 0 {
				continue
			}
			tb := c.step(n.b, op)
			path := make(spec.Seq, len(n.path), len(n.path)+1)
			copy(path, n.path)
			path = append(path, op)
			if len(tb) == 0 {
				return path, true
			}
			k := spec.StateSetKey(ta) + "|" + spec.StateSetKey(tb)
			if !visited[k] {
				visited[k] = true
				queue = append(queue, node{a: ta, b: tb, path: path})
			}
		}
	}
	return nil, false
}

func (c *Checker) alphaAllowed(states []string) bool {
	return c.restrictAlpha == nil || c.restrictAlpha(states)
}

func sortedCopy(xs []string) []string {
	out := make([]string, len(xs))
	copy(out, xs)
	sort.Strings(out)
	return out
}
