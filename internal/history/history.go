// Package history implements the event-based computational model of Weihl,
// "The Impact of Recovery on Concurrency Control" (JCSS 47, 1993),
// Section 2: events at the interface between transactions and objects,
// well-formed finite event sequences (histories), the Opseq mapping from
// histories to operation sequences, projections, the precedes relation, and
// the serializations used by the atomicity definitions.
package history

import (
	"fmt"
	"strings"

	"repro/internal/spec"
)

// TxnID identifies a transaction.
type TxnID string

// ObjectID identifies an object.
type ObjectID string

// EventKind distinguishes the four kinds of events in the model.
type EventKind int

const (
	// Invoke is an invocation event <inv, X, A>.
	Invoke EventKind = iota
	// Respond is a response event <res, X, A>.
	Respond
	// Commit is a commit event <commit, X, A>: object X learns A committed.
	Commit
	// Abort is an abort event <abort, X, A>: object X learns A aborted.
	Abort
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Invoke:
		return "invoke"
	case Respond:
		return "respond"
	case Commit:
		return "commit"
	case Abort:
		return "abort"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is a single event involving an object and a transaction.
type Event struct {
	Kind EventKind
	Obj  ObjectID
	Txn  TxnID
	// Inv is set for Invoke events.
	Inv spec.Invocation
	// Res is set for Respond events.
	Res spec.Response
}

// String renders the event in the paper's angle-bracket notation.
func (e Event) String() string {
	switch e.Kind {
	case Invoke:
		return fmt.Sprintf("<%s, %s, %s>", e.Inv, e.Obj, e.Txn)
	case Respond:
		return fmt.Sprintf("<%s, %s, %s>", e.Res, e.Obj, e.Txn)
	case Commit:
		return fmt.Sprintf("<commit, %s, %s>", e.Obj, e.Txn)
	case Abort:
		return fmt.Sprintf("<abort, %s, %s>", e.Obj, e.Txn)
	}
	return fmt.Sprintf("<?%d, %s, %s>", int(e.Kind), e.Obj, e.Txn)
}

// History is a finite sequence of events. Not every History value is
// well-formed; WellFormed checks the constraints of Section 2.
type History []Event

// String renders the history one event per line.
func (h History) String() string {
	parts := make([]string, len(h))
	for i, e := range h {
		parts[i] = e.String()
	}
	return strings.Join(parts, "\n")
}

// Clone returns a copy of the history.
func (h History) Clone() History {
	out := make(History, len(h))
	copy(out, h)
	return out
}

// Append returns h with e appended, sharing no storage with h's tail.
func (h History) Append(e Event) History {
	out := make(History, len(h), len(h)+1)
	copy(out, h)
	return append(out, e)
}

// ProjectTxn returns the subsequence of events involving transaction a
// (the paper's H|A).
func (h History) ProjectTxn(a TxnID) History {
	var out History
	for _, e := range h {
		if e.Txn == a {
			out = append(out, e)
		}
	}
	return out
}

// ProjectTxns returns the subsequence of events involving any transaction in
// the set.
func (h History) ProjectTxns(set map[TxnID]bool) History {
	var out History
	for _, e := range h {
		if set[e.Txn] {
			out = append(out, e)
		}
	}
	return out
}

// ProjectObj returns the subsequence of events involving object x
// (the paper's H|X).
func (h History) ProjectObj(x ObjectID) History {
	var out History
	for _, e := range h {
		if e.Obj == x {
			out = append(out, e)
		}
	}
	return out
}

// Objects returns the distinct objects appearing in h, in first-appearance
// order.
func (h History) Objects() []ObjectID {
	seen := make(map[ObjectID]bool)
	var out []ObjectID
	for _, e := range h {
		if !seen[e.Obj] {
			seen[e.Obj] = true
			out = append(out, e.Obj)
		}
	}
	return out
}

// Txns returns the distinct transactions appearing in h, in first-appearance
// order.
func (h History) Txns() []TxnID {
	seen := make(map[TxnID]bool)
	var out []TxnID
	for _, e := range h {
		if !seen[e.Txn] {
			seen[e.Txn] = true
			out = append(out, e.Txn)
		}
	}
	return out
}

// Committed returns the set of transactions with a commit event in h.
func (h History) Committed() map[TxnID]bool {
	out := make(map[TxnID]bool)
	for _, e := range h {
		if e.Kind == Commit {
			out[e.Txn] = true
		}
	}
	return out
}

// Aborted returns the set of transactions with an abort event in h.
func (h History) Aborted() map[TxnID]bool {
	out := make(map[TxnID]bool)
	for _, e := range h {
		if e.Kind == Abort {
			out[e.Txn] = true
		}
	}
	return out
}

// Active returns the transactions appearing in h that are neither committed
// nor aborted, in first-appearance order.
func (h History) Active() []TxnID {
	committed := h.Committed()
	aborted := h.Aborted()
	var out []TxnID
	for _, t := range h.Txns() {
		if !committed[t] && !aborted[t] {
			out = append(out, t)
		}
	}
	return out
}

// Permanent returns H | Committed(H): the projection of h onto its
// committed transactions.
func (h History) Permanent() History {
	return h.ProjectTxns(h.Committed())
}

// PendingInvocation returns the pending invocation of transaction a in h,
// if any: the invocation of a's last Invoke event with no later Respond
// event for a.
func (h History) PendingInvocation(a TxnID) (spec.Invocation, bool) {
	var inv spec.Invocation
	pending := false
	for _, e := range h {
		if e.Txn != a {
			continue
		}
		switch e.Kind {
		case Invoke:
			inv = e.Inv
			pending = true
		case Respond:
			pending = false
		}
	}
	return inv, pending
}

// Opseq maps the history to its operation sequence: one operation per
// response event, pairing the response with the transaction's pending
// invocation, in response order. Invocation, commit, and abort events and
// pending invocations are ignored (paper, Section 3.3).
//
// Opseq assumes h is well-formed enough that every response event has a
// matching pending invocation; events violating that are skipped.
func Opseq(h History) spec.Seq {
	pending := make(map[TxnID]spec.Invocation)
	hasPending := make(map[TxnID]bool)
	var out spec.Seq
	for _, e := range h {
		switch e.Kind {
		case Invoke:
			pending[e.Txn] = e.Inv
			hasPending[e.Txn] = true
		case Respond:
			if hasPending[e.Txn] {
				out = append(out, spec.Op(pending[e.Txn], e.Res))
				hasPending[e.Txn] = false
			}
		}
	}
	return out
}

// Serial builds Serial(H, T): the serial history equivalent to h with
// transactions in the given order, i.e. the concatenation H|A1 · ... · H|An.
// Transactions in h but absent from order are omitted.
func Serial(h History, order []TxnID) History {
	var out History
	for _, t := range order {
		out = append(out, h.ProjectTxn(t)...)
	}
	return out
}

// Precedes computes the precedes(H) relation: (A, B) is in the relation iff
// some operation invoked by B responds after A commits in H. The events need
// not occur at the same object. The result maps A to the set of B with
// (A, B) in precedes(H).
func Precedes(h History) map[TxnID]map[TxnID]bool {
	out := make(map[TxnID]map[TxnID]bool)
	committed := make(map[TxnID]bool)
	for _, e := range h {
		switch e.Kind {
		case Commit:
			committed[e.Txn] = true
		case Respond:
			for a := range committed {
				if a == e.Txn {
					continue
				}
				m := out[a]
				if m == nil {
					m = make(map[TxnID]bool)
					out[a] = m
				}
				m[e.Txn] = true
			}
		}
	}
	return out
}

// CommitOrder returns the transactions that commit in h ordered by their
// first commit event (the paper's Commit-order(H)).
func CommitOrder(h History) []TxnID {
	seen := make(map[TxnID]bool)
	var out []TxnID
	for _, e := range h {
		if e.Kind == Commit && !seen[e.Txn] {
			seen[e.Txn] = true
			out = append(out, e.Txn)
		}
	}
	return out
}
