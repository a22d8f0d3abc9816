// Package adt implements the abstract data types used throughout the
// reproduction: the paper's running bank-account example, several classic
// types (set, FIFO queue, key-value store, read/write register), the
// partial/nondeterministic resource pool motivating Section 8.2.2, and the
// exact counterexample specifications of Sections 8.2.2.1–8.2.2.3
// (including the Table I automaton).
//
// Each type supplies three coordinated artifacts:
//
//   - a serial specification (spec.Enumerable) over a bounded, finite
//     window, consumed by the exact decision procedures in package commute;
//   - a runtime machine (Machine) executing operations on concrete state
//     with logical (operation) undo, consumed by the recovery managers and
//     the transaction engine;
//   - closed-form analytic conflict relations (NFC, NRBC, read/write),
//     valid for unbounded parameters, consumed by the engine and
//     cross-checked against the derived relations in tests.
package adt

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/commute"
	"repro/internal/spec"
)

// ErrNotEnabled is returned by Machine.Apply when the invocation is partial
// and has no legal response in the current state (e.g. allocating from an
// empty resource pool).
var ErrNotEnabled = errors.New("adt: invocation not enabled in current state")

// Value is a runtime object state. Implementations are immutable from the
// caller's perspective: Apply and Undo return new values.
type Value interface {
	// Clone returns a deep copy.
	Clone() Value
	// Encode returns a canonical string encoding (used as spec state and in
	// logs).
	Encode() string
}

// Machine executes operations on runtime states. A Machine is a
// deterministic refinement of its type's serial specification: Apply picks
// one legal response (for nondeterministic specs, a documented rule such as
// "lowest-numbered free resource").
type Machine interface {
	Name() string
	// Init returns the initial state.
	Init() Value
	// Apply executes inv on v, returning the response and the new state.
	// It returns ErrNotEnabled for partial invocations with no legal
	// response.
	Apply(v Value, inv spec.Invocation) (spec.Response, Value, error)
	// Undo reverses the state effect of op on v. Ops are undone in reverse
	// order of application by the aborting transaction; the inverse is
	// logical (operation-based), which is what makes update-in-place
	// recovery compatible with concurrent updates.
	Undo(v Value, op spec.Operation) (Value, error)
}

// Type groups the artifacts of one abstract data type.
type Type interface {
	Name() string
	// Spec returns the bounded-window serial specification.
	Spec() spec.Enumerable
	// Machine returns the runtime machine.
	Machine() Machine
	// NFC returns the analytic forward-commutativity conflict relation
	// (the minimal conflicts for deferred-update recovery, Theorem 10).
	NFC() commute.Relation
	// NRBC returns the analytic right-backward-commutativity conflict
	// relation (the minimal conflicts for update-in-place recovery,
	// Theorem 9). Generally asymmetric.
	NRBC() commute.Relation
	// RW returns the classic read/write locking relation (Section 8.1):
	// operations conflict unless both are read-only.
	RW() commute.Relation
}

// IsRead reports whether the operation is read-only for the given type by
// consulting the type's RW relation: an operation is a read iff it does not
// conflict with itself under RW.
func IsRead(t Type, op spec.Operation) bool {
	return !t.RW().Conflicts(op, op)
}

// mustInt parses an integer argument, panicking on malformed input:
// invocation arguments are produced by this package's own constructors, so
// a parse failure is a bug, not an input error. The accepted grammar is
// fmt.Sscanf's "%d" (leading space, trailing junk); strconv.Atoi parses
// the canonical form those constructors emit without allocating, and every
// string it accepts scans to the same value under "%d", so Sscanf runs
// only for the rest.
func mustInt(s string) int {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		panic(fmt.Sprintf("adt: malformed integer argument %q: %v", s, err))
	}
	return n
}

// readOnlyRelation builds an RW relation from a read predicate.
func readOnlyRelation(name string, isRead func(op spec.Operation) bool) commute.Relation {
	return commute.RelationFunc{
		RelName: "RW(" + name + ")",
		F: func(p, q spec.Operation) bool {
			return !(isRead(p) && isRead(q))
		},
	}
}
