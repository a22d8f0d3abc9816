package adt

import (
	"fmt"
	"strconv"

	"repro/internal/commute"
	"repro/internal/spec"
)

// EscrowCounter is a bounded counter with increment and decrement that
// succeed only while the value stays within [0, Max] — the quantity
// underlying escrow-style resource accounting (the paper's Section 9
// points at O'Neil's escrow method as the tightly-coupled descendant of
// these ideas). Unlike the bank account it is bounded on *both* sides, so
// successful increments stop commuting near the ceiling exactly as
// successful decrements stop commuting near the floor; the state space is
// genuinely finite and all relations are derived exactly.
type EscrowCounter struct {
	// Initial is the starting value.
	Initial int
	// Max bounds the counter from above (the floor is 0).
	Max int
	// Amounts are the increment/decrement amounts in the alphabet.
	Amounts []int
}

// DefaultEscrowCounter returns the configuration used in tests:
// values 0..8 starting at 4, amounts {1, 2}.
func DefaultEscrowCounter() EscrowCounter {
	return EscrowCounter{Initial: 4, Max: 8, Amounts: []int{1, 2}}
}

// Inc builds the inc(i) invocation.
func Inc(i int) spec.Invocation { return spec.NewInvocation("inc", i) }

// Dec builds the dec(i) invocation.
func Dec(i int) spec.Invocation { return spec.NewInvocation("dec", i) }

// ReadCtr builds the read invocation.
func ReadCtr() spec.Invocation { return spec.NewInvocation("read") }

// IncOk is [inc(i), ok].
func IncOk(i int) spec.Operation { return spec.Op(Inc(i), "ok") }

// IncNo is [inc(i), no].
func IncNo(i int) spec.Operation { return spec.Op(Inc(i), "no") }

// DecOk is [dec(i), ok].
func DecOk(i int) spec.Operation { return spec.Op(Dec(i), "ok") }

// DecNo is [dec(i), no].
func DecNo(i int) spec.Operation { return spec.Op(Dec(i), "no") }

// ReadIsCtr is [read, v].
func ReadIsCtr(v int) spec.Operation {
	return spec.Op(ReadCtr(), spec.Response(strconv.Itoa(v)))
}

// Name implements Type.
func (EscrowCounter) Name() string { return "escrow-counter" }

// Spec implements Type: an exact finite specification over values 0..Max.
func (t EscrowCounter) Spec() spec.Enumerable {
	var ops []spec.Operation
	for _, i := range t.Amounts {
		ops = append(ops, IncOk(i), IncNo(i), DecOk(i), DecNo(i))
	}
	for v := 0; v <= t.Max; v++ {
		ops = append(ops, ReadIsCtr(v))
	}
	return &spec.FuncSpec{
		SpecName: t.Name(),
		Start:    []string{strconv.Itoa(t.Initial)},
		Ops:      ops,
		NextFunc: func(state string, op spec.Operation) []string {
			s, err := strconv.Atoi(state)
			if err != nil {
				return nil
			}
			switch op.Inv.Name {
			case "inc":
				i := mustInt(op.Inv.Args)
				if op.Res == "ok" {
					if s+i > t.Max {
						return nil
					}
					return []string{strconv.Itoa(s + i)}
				}
				if s+i <= t.Max {
					return nil
				}
				return []string{state}
			case "dec":
				i := mustInt(op.Inv.Args)
				if op.Res == "ok" {
					if s-i < 0 {
						return nil
					}
					return []string{strconv.Itoa(s - i)}
				}
				if s-i >= 0 {
					return nil
				}
				return []string{state}
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
func (t EscrowCounter) Checker() *commute.Checker { return commute.NewChecker(t.Spec()) }

// NFC implements Type; derived exactly (the counter's double bound gives
// conflicts the bank account does not have, e.g. inc-ok vs inc-ok near the
// ceiling, inc-ok vs dec-no).
func (t EscrowCounter) NFC() commute.Relation { return t.Checker().NFCRelation() }

// NRBC implements Type; derived exactly.
func (t EscrowCounter) NRBC() commute.Relation { return t.Checker().NRBCRelation() }

// RW implements Type: read is the read operation.
func (t EscrowCounter) RW() commute.Relation {
	return readOnlyRelation(t.Name(), func(op spec.Operation) bool {
		return op.Inv.Name == "read"
	})
}

// Machine implements Type.
func (t EscrowCounter) Machine() Machine {
	return ctrMachine{initial: t.Initial, max: t.Max}
}

// CtrValue is the runtime state of an EscrowCounter. The machine's states
// are *CtrValue, changed in place.
type CtrValue int

// Clone implements Value.
func (v *CtrValue) Clone() Value { c := *v; return &c }

// CopyFrom implements Value.
func (v *CtrValue) CopyFrom(src Value) { *v = *src.(*CtrValue) }

// Encode implements Value.
func (v *CtrValue) Encode() string { return strconv.Itoa(int(*v)) }

type ctrMachine struct {
	initial int
	max     int
}

func (ctrMachine) Name() string { return "escrow-counter" }

func (m ctrMachine) Init() Value {
	v := CtrValue(m.initial)
	return &v
}

func (m ctrMachine) Peek(v Value, inv spec.Invocation) (spec.Response, error) {
	c, err := stateOf[*CtrValue](v, "escrow-counter")
	if err != nil {
		return "", err
	}
	switch inv.Name {
	case "inc":
		if int(*c)+mustInt(inv.Args) > m.max {
			return "no", nil
		}
		return "ok", nil
	case "dec":
		if int(*c)-mustInt(inv.Args) < 0 {
			return "no", nil
		}
		return "ok", nil
	case "read":
		return spec.Response(strconv.Itoa(int(*c))), nil
	}
	return "", fmt.Errorf("adt: escrow-counter: unknown invocation %s", inv)
}

func (ctrMachine) Apply(v Value, op spec.Operation) error { return ctrShift(v, op, 1) }

func (ctrMachine) Undo(v Value, op spec.Operation) error { return ctrShift(v, op, -1) }

// ctrShift moves the counter by op's effect times sign: 1 applies op, -1
// undoes it. A refused step and a read change nothing.
func ctrShift(v Value, op spec.Operation, sign CtrValue) error {
	c, err := stateOf[*CtrValue](v, "escrow-counter")
	if err != nil {
		return err
	}
	switch op.Inv.Name {
	case "inc", "dec":
		if op.Res != "ok" {
			return nil
		}
		i := sign * CtrValue(mustInt(op.Inv.Args))
		if op.Inv.Name == "dec" {
			i = -i
		}
		*c += i
	case "read":
	default:
		return fmt.Errorf("adt: escrow-counter: cannot step %s", op)
	}
	return nil
}
