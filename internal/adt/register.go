package adt

import (
	"fmt"

	"repro/internal/commute"
	"repro/internal/spec"
)

// Register is a single read/write register — the degenerate type for which
// classic read/write locking is exactly commutativity-based locking: reads
// commute with reads and nothing else commutes, under either notion of
// commutativity, so NFC = NRBC = the R/W conflict relation minus
// write-follows-identical-read refinements. It anchors the Section 8.1
// results.
type Register struct {
	// Initial is the starting value.
	Initial string
	// Domain is the value alphabet of the window specification.
	Domain []string
}

// DefaultRegister returns the configuration used in tests:
// values {0, 1, 2} starting at 0.
func DefaultRegister() Register {
	return Register{Initial: "0", Domain: []string{"0", "1", "2"}}
}

// WriteReg builds the write(v) invocation.
func WriteReg(v string) spec.Invocation { return spec.NewInvocation("write", v) }

// ReadReg builds the read invocation.
func ReadReg() spec.Invocation { return spec.NewInvocation("read") }

// WriteOk is [write(v), ok].
func WriteOk(v string) spec.Operation { return spec.Op(WriteReg(v), "ok") }

// ReadIs is [read, v].
func ReadIs(v string) spec.Operation { return spec.Op(ReadReg(), spec.Response(v)) }

// Name implements Type.
func (Register) Name() string { return "register" }

// Spec implements Type: states are the current value.
func (t Register) Spec() spec.Enumerable {
	var ops []spec.Operation
	for _, v := range t.Domain {
		ops = append(ops, WriteOk(v), ReadIs(v))
	}
	return &spec.FuncSpec{
		SpecName: t.Name(),
		Start:    []string{t.Initial},
		Ops:      ops,
		NextFunc: func(state string, op spec.Operation) []string {
			switch op.Inv.Name {
			case "write":
				return []string{op.Inv.Args}
			case "read":
				if string(op.Res) != state {
					return nil
				}
				return []string{state}
			}
			return nil
		},
	}
}

// Checker builds a commute.Checker over the exact finite spec.
func (t Register) Checker() *commute.Checker { return commute.NewChecker(t.Spec()) }

// NFC implements Type; derived exactly from the window specification.
func (t Register) NFC() commute.Relation { return t.Checker().NFCRelation() }

// NRBC implements Type; derived exactly from the window specification.
func (t Register) NRBC() commute.Relation { return t.Checker().NRBCRelation() }

// RW implements Type: read is the read operation.
func (t Register) RW() commute.Relation {
	return readOnlyRelation(t.Name(), func(op spec.Operation) bool {
		return op.Inv.Name == "read"
	})
}

// Machine implements Type.
func (t Register) Machine() Machine { return regMachine{initial: t.Initial} }

// RegValue is the runtime state of a Register. The machine's states are
// *RegValue, changed in place; a write's undo token is the overwritten
// RegValue itself.
type RegValue string

// Clone implements Value.
func (v *RegValue) Clone() Value { c := *v; return &c }

// CopyFrom implements Value.
func (v *RegValue) CopyFrom(src Value) { *v = *src.(*RegValue) }

// Encode implements Value.
func (v *RegValue) Encode() string { return string(*v) }

type regMachine struct{ initial string }

func (regMachine) Name() string { return "register" }

func (m regMachine) Init() Value {
	v := RegValue(m.initial)
	return &v
}

func (m regMachine) Peek(v Value, inv spec.Invocation) (spec.Response, error) {
	r, err := stateOf[*RegValue](v, "register")
	if err != nil {
		return "", err
	}
	switch inv.Name {
	case "write":
		return "ok", nil
	case "read":
		return spec.Response(*r), nil
	}
	return "", fmt.Errorf("adt: register: unknown invocation %s", inv)
}

func (m regMachine) Apply(v Value, op spec.Operation) error {
	r, err := stateOf[*RegValue](v, "register")
	if err != nil {
		return err
	}
	switch op.Inv.Name {
	case "write":
		*r = RegValue(op.Inv.Args)
	case "read":
	default:
		return fmt.Errorf("adt: register: cannot apply %s", op)
	}
	return nil
}

func (m regMachine) Undo(v Value, op spec.Operation) error {
	if _, err := stateOf[*RegValue](v, "register"); err != nil {
		return err
	}
	if op.Inv.Name == "read" {
		return nil
	}
	return fmt.Errorf("adt: register: %s requires before-value undo", op)
}

// CaptureBefore implements BeforeImageUndoer: a write's undo restores the
// overwritten value.
func (m regMachine) CaptureBefore(v Value, inv spec.Invocation) any {
	if r, ok := v.(*RegValue); ok && inv.Name == "write" {
		return *r
	}
	return nil
}

// UndoWithBefore implements BeforeImageUndoer.
func (m regMachine) UndoWithBefore(v Value, op spec.Operation, before any) error {
	r, err := stateOf[*RegValue](v, "register")
	if err != nil {
		return err
	}
	if op.Inv.Name == "read" {
		return nil
	}
	prev, ok := before.(RegValue)
	if !ok {
		return fmt.Errorf("adt: register: bad before-image %T", before)
	}
	*r = prev
	return nil
}

// EncodeUndoToken implements UndoTokenCodec: the token is the overwritten
// register value itself.
func (regMachine) EncodeUndoToken(tok any) (string, error) {
	v, ok := tok.(RegValue)
	if !ok {
		return "", fmt.Errorf("adt: register: cannot encode undo token %T", tok)
	}
	return string(v), nil
}

// DecodeUndoToken implements UndoTokenCodec.
func (regMachine) DecodeUndoToken(s string) (any, error) {
	return RegValue(s), nil
}
