package recovery

import (
	"errors"
	"testing"

	"repro/internal/adt"
	"repro/internal/spec"
)

// badCodecMachine wraps the register machine with an undo-token codec that
// always fails — a machine whose durable encoding is broken.
type badCodecMachine struct {
	adt.Machine
}

var errNoEncode = errors.New("token not encodable")

func (m badCodecMachine) CaptureBefore(v adt.Value, inv spec.Invocation) any {
	return m.Machine.(adt.BeforeImageUndoer).CaptureBefore(v, inv)
}

func (m badCodecMachine) UndoWithBefore(v adt.Value, op spec.Operation, before any) error {
	return m.Machine.(adt.BeforeImageUndoer).UndoWithBefore(v, op, before)
}

func (badCodecMachine) EncodeUndoToken(any) (string, error) { return "", errNoEncode }
func (badCodecMachine) DecodeUndoToken(string) (any, error) { return nil, errNoEncode }

// TestApplyEncodeFailureIsAtomic: when the undo-token encoding fails,
// Apply must fail without mutating the state, the undo chain, or the log —
// otherwise a later commit or abort persists a record stream missing this
// update and crash restart diverges.
func TestApplyEncodeFailureIsAtomic(t *testing.T) {
	m := badCodecMachine{Machine: adt.DefaultRegister().Machine()}
	log := backedLog(t)
	u := NewUndoLog("R", m, log)
	if _, err := PeekApply(u, "A", adt.WriteReg("1")); !errors.Is(err, errNoEncode) {
		t.Fatalf("Apply = %v, want the encode failure", err)
	}
	if got := u.CommittedValue().Encode(); got != m.Init().Encode() {
		t.Fatalf("state mutated by failed Apply: %q", got)
	}
	if len(u.chain["A"]) != 0 {
		t.Fatalf("undo chain grew by failed Apply: %v", u.chain["A"])
	}
	if n := log.Records(); n != 0 {
		t.Fatalf("failed Apply staged %d log records", n)
	}
	// The transaction can still abort cleanly (nothing to undo) and the
	// store keeps working for operations that need no token.
	if err := u.Abort("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Peek("B", adt.ReadReg()); err != nil {
		t.Fatal(err)
	}
}
