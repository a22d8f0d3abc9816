package adt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/commute"
	"repro/internal/spec"
)

// IntSet is a set of small integers with result-dependent operations:
// insert reports whether the element was added or was already present,
// remove reports whether it was removed or absent, member tests
// membership, and size returns the cardinality. Like the bank account, its
// conflicts depend on operation results (insert-added conflicts differ from
// insert-dup), and its NFC and NRBC relations are incomparable:
// (insert-added, insert-added) is in NFC but not NRBC, while
// (insert-dup, insert-added) is in NRBC but not NFC.
type IntSet struct {
	// Universe lists the elements in the window specification's alphabet.
	Universe []int
}

// DefaultIntSet returns the configuration used in tests: universe {1,2,3}.
func DefaultIntSet() IntSet { return IntSet{Universe: []int{1, 2, 3}} }

// Insert builds the insert(x) invocation.
func Insert(x int) spec.Invocation { return spec.NewInvocation("insert", x) }

// Remove builds the remove(x) invocation.
func Remove(x int) spec.Invocation { return spec.NewInvocation("remove", x) }

// Member builds the member(x) invocation.
func Member(x int) spec.Invocation { return spec.NewInvocation("member", x) }

// Size builds the size invocation.
func Size() spec.Invocation { return spec.NewInvocation("size") }

// InsertAdded is [insert(x), added].
func InsertAdded(x int) spec.Operation { return spec.Op(Insert(x), "added") }

// InsertDup is [insert(x), dup].
func InsertDup(x int) spec.Operation { return spec.Op(Insert(x), "dup") }

// RemoveRemoved is [remove(x), removed].
func RemoveRemoved(x int) spec.Operation { return spec.Op(Remove(x), "removed") }

// RemoveAbsent is [remove(x), absent].
func RemoveAbsent(x int) spec.Operation { return spec.Op(Remove(x), "absent") }

// MemberTrue is [member(x), true].
func MemberTrue(x int) spec.Operation { return spec.Op(Member(x), "true") }

// MemberFalse is [member(x), false].
func MemberFalse(x int) spec.Operation { return spec.Op(Member(x), "false") }

// SizeIs is [size, n].
func SizeIs(n int) spec.Operation {
	return spec.Op(Size(), spec.Response(strconv.Itoa(n)))
}

type setKind int

const (
	setInsAdded setKind = iota
	setInsDup
	setRemRemoved
	setRemAbsent
	setMemTrue
	setMemFalse
	setSize
	setUnknown
)

func classifySet(op spec.Operation) setKind {
	switch op.Inv.Name {
	case "insert":
		if op.Res == "added" {
			return setInsAdded
		}
		return setInsDup
	case "remove":
		if op.Res == "removed" {
			return setRemRemoved
		}
		return setRemAbsent
	case "member":
		if op.Res == "true" {
			return setMemTrue
		}
		return setMemFalse
	case "size":
		return setSize
	}
	return setUnknown
}

// Name implements Type.
func (IntSet) Name() string { return "int-set" }

// encodeSet encodes a set state as the sorted comma-joined element list.
func encodeSet(m map[int]bool) string {
	var xs []int
	for x, in := range m {
		if in {
			xs = append(xs, x)
		}
	}
	sort.Ints(xs)
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func decodeSet(s string) (map[int]bool, error) {
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("adt: malformed set state %q", s)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
	m := make(map[int]bool)
	if body == "" {
		return m, nil
	}
	for _, p := range strings.Split(body, ",") {
		x, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("adt: malformed set element %q", p)
		}
		m[x] = true
	}
	return m, nil
}

// Spec implements Type: an exact finite specification over subsets of the
// universe.
func (t IntSet) Spec() spec.Enumerable {
	var ops []spec.Operation
	for _, x := range t.Universe {
		ops = append(ops,
			InsertAdded(x), InsertDup(x),
			RemoveRemoved(x), RemoveAbsent(x),
			MemberTrue(x), MemberFalse(x),
		)
	}
	for n := 0; n <= len(t.Universe); n++ {
		ops = append(ops, SizeIs(n))
	}
	return &spec.FuncSpec{
		SpecName: t.Name(),
		Start:    []string{"{}"},
		Ops:      ops,
		NextFunc: func(state string, op spec.Operation) []string {
			m, err := decodeSet(state)
			if err != nil {
				return nil
			}
			kind := classifySet(op)
			if kind == setSize {
				if string(op.Res) != strconv.Itoa(len(m)) {
					return nil
				}
				return []string{state}
			}
			x := mustInt(op.Inv.Args)
			switch kind {
			case setInsAdded:
				if m[x] {
					return nil
				}
				m[x] = true
				return []string{encodeSet(m)}
			case setInsDup:
				if !m[x] {
					return nil
				}
				return []string{state}
			case setRemRemoved:
				if !m[x] {
					return nil
				}
				delete(m, x)
				return []string{encodeSet(m)}
			case setRemAbsent:
				if m[x] {
					return nil
				}
				return []string{state}
			case setMemTrue:
				if !m[x] {
					return nil
				}
				return []string{state}
			case setMemFalse:
				if m[x] {
					return nil
				}
				return []string{state}
			}
			return nil
		},
	}
}

func sameElem(p, q spec.Operation) bool {
	return p.Inv.Args == q.Inv.Args
}

// sizeNFCConflict reports whether [size,n] conflicts (NFC) with a mutator
// of kind k over a universe of u elements: the two must be co-enabled in
// some state, which excludes n = u for insert-added and n = 0 for
// remove-removed.
func sizeNFCConflict(n, u int, k setKind) bool {
	switch k {
	case setInsAdded:
		return n < u
	case setRemRemoved:
		return n >= 1
	}
	return false
}

// NFC implements Type (closed-form; cross-checked against the derived
// relation in tests). Operations on distinct elements never conflict except
// through size, which observes the whole set.
func (t IntSet) NFC() commute.Relation {
	u := len(t.Universe)
	return commute.RelationFunc{
		RelName: "NFC(int-set)",
		F: func(p, q spec.Operation) bool {
			kp, kq := classifySet(p), classifySet(q)
			if kp == setSize {
				return sizeNFCConflict(mustInt(string(p.Res)), u, kq)
			}
			if kq == setSize {
				return sizeNFCConflict(mustInt(string(q.Res)), u, kp)
			}
			if !sameElem(p, q) {
				return false
			}
			type pair struct{ a, b setKind }
			conflict := map[pair]bool{
				{setInsAdded, setInsAdded}:     true,
				{setInsAdded, setRemAbsent}:    true,
				{setInsAdded, setMemFalse}:     true,
				{setInsDup, setRemRemoved}:     true,
				{setRemRemoved, setRemRemoved}: true,
				{setRemRemoved, setMemTrue}:    true,
			}
			return conflict[pair{kp, kq}] || conflict[pair{kq, kp}]
		},
	}
}

// NRBC implements Type (closed-form; requested p against held q). The size
// boundary cases mirror sizeNFCConflict: a requested [size,n] can follow a
// held insert-added only if n ≥ 1 and a held remove-removed only if
// n ≤ u-1; dually for a requested mutator against a held size.
func (t IntSet) NRBC() commute.Relation {
	u := len(t.Universe)
	return commute.RelationFunc{
		RelName: "NRBC(int-set)",
		F: func(p, q spec.Operation) bool {
			kp, kq := classifySet(p), classifySet(q)
			if kp == setSize {
				n := mustInt(string(p.Res))
				switch kq {
				case setInsAdded:
					return n >= 1
				case setRemRemoved:
					return n <= u-1
				}
				return false
			}
			if kq == setSize {
				n := mustInt(string(q.Res))
				switch kp {
				case setInsAdded:
					return n <= u-1
				case setRemRemoved:
					return n >= 1
				}
				return false
			}
			if !sameElem(p, q) {
				return false
			}
			type pair struct{ p, q setKind }
			conflict := map[pair]bool{
				{setInsAdded, setRemRemoved}:  true,
				{setInsAdded, setRemAbsent}:   true,
				{setInsAdded, setMemFalse}:    true,
				{setInsDup, setInsAdded}:      true,
				{setRemRemoved, setInsAdded}:  true,
				{setRemRemoved, setInsDup}:    true,
				{setRemRemoved, setMemTrue}:   true,
				{setRemAbsent, setRemRemoved}: true,
				{setMemTrue, setInsAdded}:     true,
				{setMemFalse, setRemRemoved}:  true,
			}
			return conflict[pair{kp, kq}]
		},
	}
}

// RW implements Type: member and size are the read operations.
func (t IntSet) RW() commute.Relation {
	return readOnlyRelation(t.Name(), func(op spec.Operation) bool {
		k := classifySet(op)
		return k == setMemTrue || k == setMemFalse || k == setSize
	})
}

// Machine implements Type.
func (t IntSet) Machine() Machine { return setMachine{} }

// SetValue is the runtime state of an IntSet, changed in place.
type SetValue map[int]bool

// Clone implements Value.
func (v SetValue) Clone() Value {
	out := make(SetValue, len(v))
	out.CopyFrom(v)
	return out
}

// CopyFrom implements Value.
func (v SetValue) CopyFrom(src Value) {
	clear(v)
	for k, b := range src.(SetValue) {
		if b {
			v[k] = true
		}
	}
}

// Encode implements Value.
func (v SetValue) Encode() string { return encodeSet(v) }

type setMachine struct{}

func (setMachine) Name() string { return "int-set" }

func (setMachine) Init() Value { return SetValue{} }

func (setMachine) Peek(v Value, inv spec.Invocation) (spec.Response, error) {
	s, err := stateOf[SetValue](v, "int-set")
	if err != nil {
		return "", err
	}
	switch inv.Name {
	case "insert":
		if s[mustInt(inv.Args)] {
			return "dup", nil
		}
		return "added", nil
	case "remove":
		if !s[mustInt(inv.Args)] {
			return "absent", nil
		}
		return "removed", nil
	case "member":
		if s[mustInt(inv.Args)] {
			return "true", nil
		}
		return "false", nil
	case "size":
		n := 0
		for _, b := range s {
			if b {
				n++
			}
		}
		return spec.Response(strconv.Itoa(n)), nil
	}
	return "", fmt.Errorf("adt: int-set: unknown invocation %s", inv)
}

func (setMachine) Apply(v Value, op spec.Operation) error { return setStep(v, op, true) }

func (setMachine) Undo(v Value, op spec.Operation) error { return setStep(v, op, false) }

// setStep applies op to the set in place (forward) or undoes it: an added
// insert and a removed remove are the only operations that change it.
func setStep(v Value, op spec.Operation, forward bool) error {
	s, err := stateOf[SetValue](v, "int-set")
	if err != nil {
		return err
	}
	switch k := classifySet(op); k {
	case setInsAdded, setRemRemoved:
		x := mustInt(op.Inv.Args)
		if (k == setInsAdded) == forward {
			s[x] = true
		} else {
			delete(s, x)
		}
	case setInsDup, setRemAbsent, setMemTrue, setMemFalse, setSize:
	default:
		return fmt.Errorf("adt: int-set: cannot step %s", op)
	}
	return nil
}
