package spec

import (
	"fmt"
	"sort"
)

// Automaton is an explicit, finite, possibly nondeterministic state machine
// implementing Enumerable. States are arbitrary strings; transitions are
// added with AddTransition. Automaton is the workhorse representation for
// the finite specifications in the paper (the Table I automaton, the
// Section 8.2.2 mini-specs, and finite instantiations of the classic ADTs).
//
// An Automaton is immutable after Freeze; the decision procedures assume the
// transition structure does not change while they run.
type Automaton struct {
	name     string
	initial  []string
	alphabet []Operation
	alphaSet map[Operation]bool
	delta    map[string]map[Operation][]string
	frozen   bool
}

// NewAutomaton creates an empty automaton with the given name and initial
// states.
func NewAutomaton(name string, initial ...string) *Automaton {
	return &Automaton{
		name:     name,
		initial:  append([]string(nil), initial...),
		alphaSet: make(map[Operation]bool),
		delta:    make(map[string]map[Operation][]string),
	}
}

// Name implements Spec.
func (a *Automaton) Name() string { return a.name }

// Initial implements Enumerable.
func (a *Automaton) Initial() []string { return a.initial }

// Alphabet implements Enumerable. Operations appear in insertion order.
func (a *Automaton) Alphabet() []Operation { return a.alphabet }

// AddTransition records that executing op in state from may lead to state
// to. Multiple targets for the same (from, op) make the automaton
// nondeterministic. AddTransition panics if called after Freeze; building a
// spec is a programming-time activity and misuse is a bug.
func (a *Automaton) AddTransition(from string, op Operation, to string) {
	if a.frozen {
		panic(fmt.Sprintf("spec: AddTransition on frozen automaton %q", a.name))
	}
	if !a.alphaSet[op] {
		a.alphaSet[op] = true
		a.alphabet = append(a.alphabet, op)
	}
	m := a.delta[from]
	if m == nil {
		m = make(map[Operation][]string)
		a.delta[from] = m
	}
	m[op] = append(m[op], to)
}

// Freeze marks the automaton immutable and returns it, for fluent
// construction.
func (a *Automaton) Freeze() *Automaton {
	a.frozen = true
	return a
}

// Next implements Enumerable.
func (a *Automaton) Next(state string, op Operation) []string {
	m := a.delta[state]
	if m == nil {
		return nil
	}
	return m[op]
}

// Legal implements Spec via subset simulation.
func (a *Automaton) Legal(seq Seq) bool { return Legal(a, seq) }

func dedup(xs []string) []string {
	if len(xs) < 2 {
		return xs
	}
	seen := make(map[string]bool, len(xs))
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// FuncSpec adapts a transition function over string states to Enumerable.
// It suits specs whose state space is naturally generated (e.g. a bounded
// bank account) where materializing every transition up front is wasteful.
type FuncSpec struct {
	SpecName string
	Start    []string
	Ops      []Operation
	// NextFunc returns successor states of state under op; nil/empty means
	// the operation is illegal in that state.
	NextFunc func(state string, op Operation) []string
}

// Name implements Spec.
func (f *FuncSpec) Name() string { return f.SpecName }

// Initial implements Enumerable.
func (f *FuncSpec) Initial() []string { return f.Start }

// Alphabet implements Enumerable.
func (f *FuncSpec) Alphabet() []Operation { return f.Ops }

// Next implements Enumerable.
func (f *FuncSpec) Next(state string, op Operation) []string {
	return f.NextFunc(state, op)
}

// Legal implements Spec.
func (f *FuncSpec) Legal(seq Seq) bool { return Legal(f, seq) }
