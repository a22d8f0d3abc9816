// Package spec models serial specifications of abstract data types as
// prefix-closed languages of operation sequences, following Weihl,
// "The Impact of Recovery on Concurrency Control" (JCSS 47, 1993), Section 3.
//
// An Operation is a pair of an invocation and a response; a Spec is the set
// of operation sequences the object may exhibit in a sequential, failure-free
// execution. Specs that additionally expose an enumerable nondeterministic
// state machine (the Enumerable interface) admit exact decision procedures
// for legality, the looks-like preorder, equieffectiveness, and the
// commutativity relations implemented in package commute.
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Invocation names an operation invocation: the operation name plus its
// rendered argument list. Invocations are comparable and therefore usable as
// map keys. Use NewInvocation to construct one with canonical rendering.
type Invocation struct {
	// Name is the operation name, e.g. "withdraw".
	Name string
	// Args is the canonical comma-separated rendering of the arguments,
	// e.g. "3" or "k,v". Empty for nullary invocations.
	Args string
}

// NewInvocation builds an Invocation with a canonical argument rendering.
func NewInvocation(name string, args ...any) Invocation {
	if len(args) == 0 {
		return Invocation{Name: name}
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = fmt.Sprint(a)
	}
	return Invocation{Name: name, Args: strings.Join(parts, ",")}
}

// String renders the invocation as name(args).
func (i Invocation) String() string {
	if i.Args == "" {
		return i.Name
	}
	return i.Name + "(" + i.Args + ")"
}

// Response is the result returned by an operation execution, rendered
// canonically (e.g. "ok", "no", "5").
type Response string

// Operation is a single execution of an operation in the formal sense of the
// paper: an invocation paired with the response it returned. Operations are
// comparable.
type Operation struct {
	Inv Invocation
	Res Response
}

// Op is shorthand for constructing an Operation.
func Op(inv Invocation, res Response) Operation {
	return Operation{Inv: inv, Res: res}
}

// String renders the operation in the paper's bracket notation,
// e.g. "[withdraw(3),ok]".
func (o Operation) String() string {
	return "[" + o.Inv.String() + "," + string(o.Res) + "]"
}

// Seq is an operation sequence. The empty sequence is the empty history of
// an object.
type Seq []Operation

// String renders the sequence as a dot-separated list of operations.
func (s Seq) String() string {
	if len(s) == 0 {
		return "Λ"
	}
	parts := make([]string, len(s))
	for i, op := range s {
		parts[i] = op.String()
	}
	return strings.Join(parts, "·")
}

// Spec is a serial specification: a prefix-closed set of operation
// sequences. Legal reports membership.
type Spec interface {
	// Name identifies the specification (e.g. "bank-account").
	Name() string
	// Legal reports whether the operation sequence is in the specification.
	// Specs are prefix-closed: if Legal(s) then Legal(p) for every prefix p.
	Legal(seq Seq) bool
}

// Enumerable is a Spec exposed as an explicit (possibly nondeterministic)
// state machine over string-encoded states with a finite operation alphabet.
// The decision procedures in package commute require this interface.
//
// Semantics: a sequence is legal iff some path from an initial state
// executes it. Next returns the states reachable from state by executing op;
// an empty result means op is not enabled in that state.
type Enumerable interface {
	Spec
	// Initial returns the initial states (usually one).
	Initial() []string
	// Next returns the successor states of state under op (empty if illegal).
	Next(state string, op Operation) []string
	// Alphabet returns the finite set of operations under consideration.
	Alphabet() []Operation
}

// Legal runs the subset simulation of an Enumerable over seq and reports
// whether the final state set is nonempty. It is the canonical Legal
// implementation for Enumerable specs.
func Legal(e Enumerable, seq Seq) bool {
	return len(Run(e, e.Initial(), seq)) > 0
}

// Run advances a state set through an operation sequence, returning the set
// of states reachable at the end (deduplicated, sorted). An empty result
// means the sequence is illegal from the given states.
func Run(e Enumerable, states []string, seq Seq) []string {
	cur := states
	for _, op := range seq {
		cur = Step(e, cur, op)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// Step advances a state set by one operation (deduplicated, sorted).
func Step(e Enumerable, states []string, op Operation) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range states {
		for _, t := range e.Next(s, op) {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Strings(out)
	return out
}

// StateSetKey returns a canonical key for a state set, suitable for use in
// visited maps during subset construction.
func StateSetKey(states []string) string {
	if len(states) == 0 {
		return ""
	}
	sorted := make([]string, len(states))
	copy(sorted, states)
	sort.Strings(sorted)
	return strings.Join(sorted, "\x1f")
}

// Responses returns the responses r such that Op(inv, r) appears in the
// alphabet of e, in alphabet order.
func Responses(e Enumerable, inv Invocation) []Response {
	var out []Response
	for _, op := range e.Alphabet() {
		if op.Inv == inv {
			out = append(out, op.Res)
		}
	}
	return out
}

// Invocations returns the distinct invocations appearing in the alphabet of
// e, in first-appearance order.
func Invocations(e Enumerable) []Invocation {
	seen := make(map[Invocation]bool)
	var out []Invocation
	for _, op := range e.Alphabet() {
		if !seen[op.Inv] {
			seen[op.Inv] = true
			out = append(out, op.Inv)
		}
	}
	return out
}
