package adt

import "repro/internal/spec"

// BeforeImageUndoer is implemented by machines whose operations cannot be
// undone from the operation alone (e.g. a key-value put overwrites the old
// value). The recovery managers capture a token before the in-place Apply
// of such an invocation and hand it back on undo. The token must describe only the
// state the operation overwrites (a key's cell, a register's value) — not a
// whole-object snapshot — so that undo composes with concurrent updates to
// unrelated parts of the state, exactly as the concurrency-control theory
// requires.
type BeforeImageUndoer interface {
	// CaptureBefore returns the token needed to undo inv applied to v,
	// leaving v unchanged. It may return nil for read-only invocations.
	CaptureBefore(v Value, inv spec.Invocation) any
	// UndoWithBefore reverses op on v in place using the captured token.
	UndoWithBefore(v Value, op spec.Operation, before any) error
}

// UndoTokenCodec is implemented by machines whose undo tokens must survive
// a durable write-ahead-log round trip: the recovery manager encodes the
// token when staging the log record (wal.EncodedUndo), and crash restart
// decodes it before handing it back to UndoWithBefore. Machines with
// purely logical undo (no before images) need no codec.
type UndoTokenCodec interface {
	// EncodeUndoToken renders a CaptureBefore token as a string.
	EncodeUndoToken(tok any) (string, error)
	// DecodeUndoToken parses a string produced by EncodeUndoToken.
	DecodeUndoToken(s string) (any, error)
}

// ValueCodec is implemented by machines whose states can be reconstructed
// from their canonical Value.Encode form. Fuzzy checkpointing requires it:
// a checkpoint stores each captured object's state as its encoding, and a
// checkpoint-seeded restart decodes it back into the value the log suffix
// is then replayed against. Machines without a ValueCodec cannot be
// checkpointed (the engine reports an error rather than silently leaving
// the object out of an otherwise-truncatable checkpoint).
type ValueCodec interface {
	// DecodeValue parses a string produced by Value.Encode into a fresh
	// state of this machine, owned by the caller.
	DecodeValue(s string) (Value, error)
}
