package history

// Test-only helpers: the Builder's abort event, a panicking
// well-formedness check for fixtures, and the serial failure-free
// predicate the Serial tests check against. No production code calls
// them.

// Abort appends an abort event.
func (b *Builder) Abort(x ObjectID, a TxnID) *Builder {
	b.h = append(b.h, Event{Kind: Abort, Obj: x, Txn: a})
	return b
}

// MustWellFormed panics if h is not well-formed. It is intended for
// constructing test fixtures and example histories.
func MustWellFormed(h History) History {
	if err := WellFormed(h); err != nil {
		panic(err)
	}
	return h
}

// SerialFailureFree reports whether h is a serial failure-free history:
// events of different transactions are not interleaved and no transaction
// aborts.
func SerialFailureFree(h History) bool {
	finished := make(map[TxnID]bool)
	var current TxnID
	haveCurrent := false
	for _, e := range h {
		if e.Kind == Abort {
			return false
		}
		if finished[e.Txn] {
			return false
		}
		if haveCurrent && e.Txn != current {
			finished[current] = true
			if finished[e.Txn] {
				return false
			}
		}
		current = e.Txn
		haveCurrent = true
	}
	return true
}
