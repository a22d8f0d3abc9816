// Package core implements the paper's primary contribution: the abstract
// model of an atomic object I(X, Spec, View, Conflict) of Weihl,
// "The Impact of Recovery on Concurrency Control" (JCSS 47, 1993),
// Section 4, together with the two recovery abstractions of Section 5
// (update-in-place and deferred-update View functions) and the
// counterexample constructions used in the only-if directions of
// Theorems 9 and 10.
//
// The object's state is literally the sequence of events that have occurred
// at it. Input events (invocations, commits, aborts) are always enabled;
// a response event is enabled iff the transaction has a pending invocation,
// the operation conflicts with no operation executed by another active
// transaction, and the response is legal after the serial state computed by
// the View function.
package core

import (
	"fmt"

	"repro/internal/commute"
	"repro/internal/history"
	"repro/internal/spec"
)

// View abstracts a recovery method: it maps the object's event history and
// an active transaction to the serial state (an operation sequence) against
// which that transaction's next response is validated (paper, Section 4).
type View struct {
	Name string
	F    func(h history.History, a history.TxnID) spec.Seq
}

// UIP is the update-in-place recovery abstraction (paper, Section 5):
// the serial state contains the operations of all non-aborted transactions
// (committed and active alike) in execution order.
var UIP = View{
	Name: "UIP",
	F: func(h history.History, a history.TxnID) spec.Seq {
		aborted := h.Aborted()
		keep := make(map[history.TxnID]bool)
		for _, t := range h.Txns() {
			if !aborted[t] {
				keep[t] = true
			}
		}
		return history.Opseq(h.ProjectTxns(keep))
	},
}

// DU is the deferred-update recovery abstraction (paper, Section 5):
// the serial state contains the operations of committed transactions in
// commit order, followed by the operations of the active transaction itself.
var DU = View{
	Name: "DU",
	F: func(h history.History, a history.TxnID) spec.Seq {
		committedSerial := history.Serial(h.Permanent(), history.CommitOrder(h))
		return append(history.Opseq(committedSerial), history.Opseq(h.ProjectTxn(a))...)
	},
}

// Object is the I(X, Spec, View, Conflict) automaton. Its state is the
// event history; methods append events subject to the preconditions of
// Section 4. Object is not safe for concurrent use: it models a single
// I/O automaton whose steps are atomic.
type Object struct {
	id       history.ObjectID
	spec     spec.Spec
	view     View
	conflict commute.Relation
	state    history.History
}

// NewObject builds the automaton for object id with the given parameters.
func NewObject(id history.ObjectID, sp spec.Spec, v View, conflict commute.Relation) *Object {
	return &Object{id: id, spec: sp, view: v, conflict: conflict}
}

// Invoke appends an invocation event. Invocations are input actions and
// always enabled, but Invoke enforces the well-formedness constraints the
// environment is assumed to preserve, returning an error on violation.
func (o *Object) Invoke(a history.TxnID, inv spec.Invocation) error {
	return o.applyInput(history.Event{Kind: history.Invoke, Obj: o.id, Txn: a, Inv: inv})
}

// Commit appends a commit event (input action).
func (o *Object) Commit(a history.TxnID) error {
	return o.applyInput(history.Event{Kind: history.Commit, Obj: o.id, Txn: a})
}

// Abort appends an abort event (input action).
func (o *Object) Abort(a history.TxnID) error {
	return o.applyInput(history.Event{Kind: history.Abort, Obj: o.id, Txn: a})
}

func (o *Object) applyInput(e history.Event) error {
	next := o.state.Append(e)
	if err := history.WellFormed(next); err != nil {
		return err
	}
	o.state = next
	return nil
}

// ResponseEnabled reports whether the response event <res, X, A> is enabled
// in the current state, and if not, why. The three preconditions are those
// of Section 4.
func (o *Object) ResponseEnabled(a history.TxnID, res spec.Response) (bool, string) {
	inv, pending := o.state.PendingInvocation(a)
	if !pending {
		return false, fmt.Sprintf("transaction %s has no pending invocation", a)
	}
	op := spec.Op(inv, res)
	// No conflict with any operation already executed by another active
	// transaction.
	for _, b := range o.state.Active() {
		if b == a {
			continue
		}
		for _, p := range history.Opseq(o.state.ProjectTxn(b)) {
			if o.conflict.Conflicts(op, p) {
				return false, fmt.Sprintf("%s conflicts with %s held by active %s under %s", op, p, b, o.conflict.Name())
			}
		}
	}
	// The response must be legal after the view's serial state.
	serial := append(o.view.F(o.state, a), op)
	if !o.spec.Legal(serial) {
		return false, fmt.Sprintf("%s illegal after %s view %s", op, o.view.Name, serial[:len(serial)-1])
	}
	return true, ""
}

// Respond appends the response event if it is enabled, otherwise returns an
// error describing the violated precondition.
func (o *Object) Respond(a history.TxnID, res spec.Response) error {
	ok, reason := o.ResponseEnabled(a, res)
	if !ok {
		return fmt.Errorf("core: response %q for %s not enabled: %s", res, a, reason)
	}
	o.state = o.state.Append(history.Event{Kind: history.Respond, Obj: o.id, Txn: a, Res: res})
	return nil
}

// Accepts replays h (which must involve only this object's ID) against a
// fresh copy of the automaton and reports whether every event is
// permitted: input events must preserve well-formedness and every response
// event must be enabled at its point. On rejection it returns the index of
// the offending event and a reason.
func Accepts(id history.ObjectID, sp spec.Spec, v View, conflict commute.Relation, h history.History) (bool, int, string) {
	o := NewObject(id, sp, v, conflict)
	for i, e := range h {
		if e.Obj != id {
			return false, i, fmt.Sprintf("event involves object %q, not %q", e.Obj, id)
		}
		var err error
		switch e.Kind {
		case history.Invoke:
			err = o.Invoke(e.Txn, e.Inv)
		case history.Respond:
			err = o.Respond(e.Txn, e.Res)
		case history.Commit:
			err = o.Commit(e.Txn)
		case history.Abort:
			err = o.Abort(e.Txn)
		default:
			err = fmt.Errorf("unknown event kind %v", e.Kind)
		}
		if err != nil {
			return false, i, err.Error()
		}
	}
	return true, -1, ""
}
