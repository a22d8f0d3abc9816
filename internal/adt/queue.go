package adt

import (
	"fmt"
	"strings"

	"repro/internal/commute"
	"repro/internal/spec"
)

// FIFOQueue is a bounded FIFO queue over a small element alphabet.
// enq(x) returns "ok" (appending x) when there is room and "full"
// otherwise; deq returns the front element (removing it) or "empty".
// Order-sensitivity makes enq/enq pairs non-commutative in both senses —
// a contrast with the bank account, where same-kind updates often commute.
type FIFOQueue struct {
	// Capacity bounds the queue length.
	Capacity int
	// Elements is the element alphabet of the window specification.
	Elements []string
}

// DefaultFIFOQueue returns the configuration used in tests:
// capacity 3 over {a, b}.
func DefaultFIFOQueue() FIFOQueue {
	return FIFOQueue{Capacity: 3, Elements: []string{"a", "b"}}
}

// Enq builds the enq(x) invocation.
func Enq(x string) spec.Invocation { return spec.NewInvocation("enq", x) }

// Deq builds the deq invocation.
func Deq() spec.Invocation { return spec.NewInvocation("deq") }

// EnqOk is [enq(x), ok].
func EnqOk(x string) spec.Operation { return spec.Op(Enq(x), "ok") }

// EnqFull is [enq(x), full].
func EnqFull(x string) spec.Operation { return spec.Op(Enq(x), "full") }

// DeqElem is [deq, x].
func DeqElem(x string) spec.Operation { return spec.Op(Deq(), spec.Response(x)) }

// DeqEmpty is [deq, empty].
func DeqEmpty() spec.Operation { return spec.Op(Deq(), "empty") }

// Name implements Type.
func (FIFOQueue) Name() string { return "fifo-queue" }

const queueSep = ";"

func encodeQueue(items []string) string {
	return "[" + strings.Join(items, queueSep) + "]"
}

func decodeQueue(s string) ([]string, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("adt: malformed queue state %q", s)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(s, "["), "]")
	if body == "" {
		return nil, nil
	}
	return strings.Split(body, queueSep), nil
}

// Spec implements Type: an exact finite specification over queue contents
// of length at most Capacity.
func (t FIFOQueue) Spec() spec.Enumerable {
	var ops []spec.Operation
	for _, x := range t.Elements {
		ops = append(ops, EnqOk(x), EnqFull(x), DeqElem(x))
	}
	ops = append(ops, DeqEmpty())
	return &spec.FuncSpec{
		SpecName: t.Name(),
		Start:    []string{encodeQueue(nil)},
		Ops:      ops,
		NextFunc: func(state string, op spec.Operation) []string {
			items, err := decodeQueue(state)
			if err != nil {
				return nil
			}
			switch op.Inv.Name {
			case "enq":
				x := op.Inv.Args
				if op.Res == "ok" {
					if len(items) >= t.Capacity {
						return nil
					}
					return []string{encodeQueue(append(append([]string(nil), items...), x))}
				}
				if len(items) < t.Capacity {
					return nil
				}
				return []string{state}
			case "deq":
				if op.Res == "empty" {
					if len(items) > 0 {
						return nil
					}
					return []string{state}
				}
				if len(items) == 0 || items[0] != string(op.Res) {
					return nil
				}
				return []string{encodeQueue(items[1:])}
			}
			return nil
		},
	}
}

// Checker builds a commute.Checker over the exact finite spec.
func (t FIFOQueue) Checker() *commute.Checker { return commute.NewChecker(t.Spec()) }

// NFC implements Type; the relation is derived exactly from the finite
// window specification (and memoized per pair).
func (t FIFOQueue) NFC() commute.Relation { return t.Checker().NFCRelation() }

// NRBC implements Type; derived exactly from the window specification.
func (t FIFOQueue) NRBC() commute.Relation { return t.Checker().NRBCRelation() }

// RW implements Type: a queue has no read-only operations in this alphabet
// except failed operations; deq-empty and enq-full observe without
// mutating, but they still order against mutators, so only pairs of
// identical observers commute. We derive RW from the read-operation
// predicate of Section 8.1.
func (t FIFOQueue) RW() commute.Relation {
	return readOnlyRelation(t.Name(), func(op spec.Operation) bool {
		return op == DeqEmpty() || op.Inv.Name == "enq" && op.Res == "full"
	})
}

// Machine implements Type.
func (t FIFOQueue) Machine() Machine { return queueMachine{capacity: t.Capacity} }

// QueueValue is the runtime state of a FIFOQueue: front-first contents.
// The machine's states are *QueueValue, changed in place.
type QueueValue []string

// Clone implements Value.
func (v *QueueValue) Clone() Value {
	c := append(QueueValue(nil), *v...)
	return &c
}

// CopyFrom implements Value.
func (v *QueueValue) CopyFrom(src Value) { *v = append((*v)[:0], *src.(*QueueValue)...) }

// Encode implements Value.
func (v *QueueValue) Encode() string { return encodeQueue(*v) }

type queueMachine struct{ capacity int }

func (queueMachine) Name() string { return "fifo-queue" }

func (queueMachine) Init() Value { return new(QueueValue) }

func (m queueMachine) Peek(v Value, inv spec.Invocation) (spec.Response, error) {
	q, err := stateOf[*QueueValue](v, "fifo-queue")
	if err != nil {
		return "", err
	}
	switch inv.Name {
	case "enq":
		if len(*q) >= m.capacity {
			return "full", nil
		}
		return "ok", nil
	case "deq":
		if len(*q) == 0 {
			return "empty", nil
		}
		return spec.Response((*q)[0]), nil
	}
	return "", fmt.Errorf("adt: fifo-queue: unknown invocation %s", inv)
}

func (queueMachine) Apply(v Value, op spec.Operation) error {
	q, err := stateOf[*QueueValue](v, "fifo-queue")
	if err != nil {
		return err
	}
	switch {
	case op.Inv.Name == "enq" && op.Res == "ok":
		*q = append(*q, op.Inv.Args)
	case op.Inv.Name == "deq" && op.Res != "empty":
		if len(*q) == 0 || (*q)[0] != string(op.Res) {
			return fmt.Errorf("adt: fifo-queue: %s does not match the front of the queue", op)
		}
		(*q)[0] = ""
		*q = (*q)[1:]
	case op.Inv.Name != "enq" && op.Inv.Name != "deq":
		return fmt.Errorf("adt: fifo-queue: cannot apply %s", op)
	}
	return nil
}

func (queueMachine) Undo(v Value, op spec.Operation) error {
	q, err := stateOf[*QueueValue](v, "fifo-queue")
	if err != nil {
		return err
	}
	switch op.Inv.Name {
	case "enq":
		if op.Res != "ok" {
			return nil
		}
		// Logical undo: remove the most recent occurrence of the enqueued
		// element from the tail (it is the transaction's own append).
		for i := len(*q) - 1; i >= 0; i-- {
			if (*q)[i] == op.Inv.Args {
				*q = append((*q)[:i], (*q)[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("adt: fifo-queue: undo enq: element %q not found", op.Inv.Args)
	case "deq":
		if op.Res == "empty" {
			return nil
		}
		// Logical undo of a dequeue: push the element back on the front.
		s := append(*q, "")
		copy(s[1:], s)
		s[0] = string(op.Res)
		*q = s
		return nil
	}
	return fmt.Errorf("adt: fifo-queue: cannot undo %s", op)
}
