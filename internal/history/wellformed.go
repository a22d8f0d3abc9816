package history

import "fmt"

// WellFormedError describes the first well-formedness violation found in a
// history, with the index of the offending event.
type WellFormedError struct {
	Index int
	Event Event
	Rule  string
}

// Error implements error.
func (e *WellFormedError) Error() string {
	return fmt.Sprintf("history: event %d %s violates well-formedness: %s",
		e.Index, e.Event, e.Rule)
}

// WellFormed checks the well-formedness constraints of Section 2 of the
// paper and returns the first violation, or nil if the history is
// well-formed:
//
//   - A transaction waits for the response to its last invocation before
//     invoking again; an object responds only to a pending invocation, and
//     the response is issued by the object the invocation was sent to.
//   - A transaction commits or aborts at most once (and not both) per
//     object, and its global outcome is consistent: it never commits at one
//     object and aborts at another.
//   - A transaction cannot commit while an invocation is pending and cannot
//     invoke operations after it commits or aborts.
func WellFormed(h History) error {
	type txnState struct {
		pending    bool
		pendingObj ObjectID
		committed  map[ObjectID]bool
		aborted    map[ObjectID]bool
	}
	states := make(map[TxnID]*txnState)
	get := func(t TxnID) *txnState {
		s := states[t]
		if s == nil {
			s = &txnState{
				committed: make(map[ObjectID]bool),
				aborted:   make(map[ObjectID]bool),
			}
			states[t] = s
		}
		return s
	}
	fail := func(i int, e Event, rule string) error {
		return &WellFormedError{Index: i, Event: e, Rule: rule}
	}
	for i, e := range h {
		s := get(e.Txn)
		switch e.Kind {
		case Invoke:
			if s.pending {
				return fail(i, e, "invocation while another invocation is pending")
			}
			if len(s.committed) > 0 {
				return fail(i, e, "invocation after commit")
			}
			if len(s.aborted) > 0 {
				return fail(i, e, "invocation after abort")
			}
			s.pending = true
			s.pendingObj = e.Obj
		case Respond:
			if !s.pending {
				return fail(i, e, "response with no pending invocation")
			}
			if s.pendingObj != e.Obj {
				return fail(i, e, "response from an object other than the invoked one")
			}
			s.pending = false
		case Commit:
			if s.pending {
				return fail(i, e, "commit while an invocation is pending")
			}
			if len(s.aborted) > 0 {
				return fail(i, e, "commit after abort")
			}
			if s.committed[e.Obj] {
				return fail(i, e, "duplicate commit at object")
			}
			s.committed[e.Obj] = true
		case Abort:
			if len(s.committed) > 0 {
				return fail(i, e, "abort after commit")
			}
			if s.aborted[e.Obj] {
				return fail(i, e, "duplicate abort at object")
			}
			s.aborted[e.Obj] = true
		default:
			return fail(i, e, "unknown event kind")
		}
	}
	return nil
}
