package history

import "repro/internal/spec"

// Builder constructs histories fluently. It is the standard way to write
// test fixtures and the machine-built counterexample histories of
// Theorems 9 and 10.
type Builder struct {
	h History
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Invoke appends an invocation event.
func (b *Builder) Invoke(x ObjectID, a TxnID, inv spec.Invocation) *Builder {
	b.h = append(b.h, Event{Kind: Invoke, Obj: x, Txn: a, Inv: inv})
	return b
}

// Respond appends a response event.
func (b *Builder) Respond(x ObjectID, a TxnID, res spec.Response) *Builder {
	b.h = append(b.h, Event{Kind: Respond, Obj: x, Txn: a, Res: res})
	return b
}

// Exec appends the invocation and response events of a completed operation.
func (b *Builder) Exec(x ObjectID, a TxnID, op spec.Operation) *Builder {
	return b.Invoke(x, a, op.Inv).Respond(x, a, op.Res)
}

// ExecSeq appends the events of a whole operation sequence executed by a.
func (b *Builder) ExecSeq(x ObjectID, a TxnID, seq spec.Seq) *Builder {
	for _, op := range seq {
		b.Exec(x, a, op)
	}
	return b
}

// Commit appends a commit event.
func (b *Builder) Commit(x ObjectID, a TxnID) *Builder {
	b.h = append(b.h, Event{Kind: Commit, Obj: x, Txn: a})
	return b
}

// History returns the built history (a copy, so the builder may be reused).
func (b *Builder) History() History {
	return b.h.Clone()
}
