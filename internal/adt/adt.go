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
//   - a runtime machine (Machine) executing operations in place on a
//     mutable concrete state (Value) with logical (operation) undo,
//     consumed by the recovery managers and the transaction engine: Peek
//     computes a response without changing the state, Apply and Undo
//     change it;
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

// ErrNotEnabled is returned by Machine.Peek when the invocation is partial
// and has no legal response in the current state (e.g. allocating from an
// empty resource pool).
var ErrNotEnabled = errors.New("adt: invocation not enabled in current state")

// Value is a runtime object state. A value is mutable and has exactly one
// owner — a recovery store's current or base state, or a transaction's
// private workspace — which changes it in place through its machine's
// Apply and Undo. Scalar states are pointers, allocated once by Init,
// Clone or decoding, so a step boxes nothing.
type Value interface {
	// Clone returns a deep copy that shares no storage with the value.
	Clone() Value
	// CopyFrom makes the value a deep copy of src, a state of the same
	// machine, reusing the value's own storage.
	CopyFrom(src Value)
	// Encode returns a canonical string encoding (used as spec state and in
	// logs).
	Encode() string
}

// Machine executes operations on runtime states. A Machine is a
// deterministic refinement of its type's serial specification: Peek picks
// one legal response (for nondeterministic specs, a documented rule such as
// "lowest-numbered free resource").
//
// A step is split in two, because locking is result-dependent: Peek
// computes the response and changes nothing, and Apply then performs the
// operation — the invocation with that response — in place. Given an
// operation Peek returned for the state, Apply cannot fail.
type Machine interface {
	Name() string
	// Init returns a fresh initial state, owned by the caller.
	Init() Value
	// Peek returns the response inv gets in v, leaving v unchanged. It
	// returns ErrNotEnabled for partial invocations with no legal
	// response.
	Peek(v Value, inv spec.Invocation) (spec.Response, error)
	// Apply performs op on v in place. op is an invocation with the
	// response Peek gave it in v's current state; Apply trusts that
	// response and does not compute it again.
	Apply(v Value, op spec.Operation) error
	// Undo reverses the state effect of op on v in place. Ops are undone
	// in reverse order of application by the aborting transaction; the
	// inverse is logical (operation-based), which is what makes
	// update-in-place recovery compatible with concurrent updates.
	Undo(v Value, op spec.Operation) error
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

// stateOf returns v as the state type T of the named machine, or an
// error if v is another machine's state.
func stateOf[T Value](v Value, machine string) (T, error) {
	s, ok := v.(T)
	if !ok {
		return s, fmt.Errorf("adt: %s machine applied to %T", machine, v)
	}
	return s, nil
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
