package adt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/commute"
	"repro/internal/spec"
)

// ResourcePool is the paper's motivating example of a partial,
// nondeterministic type (Section 8.2.1): alloc returns some free resource —
// the choice is nondeterministic — and has no legal response when the pool
// is empty (partial); release(r) returns a resource to the pool and is
// legal only for resources currently allocated. Because alloc is partial
// and nondeterministic, the invocation-based relations FCI and RBCI
// diverge on this type (Section 8.2.2), which the experiments demonstrate
// dynamically.
type ResourcePool struct {
	// Resources lists the pool's resources; all start free.
	Resources []int
}

// DefaultResourcePool returns the configuration used in tests:
// resources {1, 2, 3}.
func DefaultResourcePool() ResourcePool { return ResourcePool{Resources: []int{1, 2, 3}} }

// Alloc builds the alloc invocation.
func Alloc() spec.Invocation { return spec.NewInvocation("alloc") }

// Release builds the release(r) invocation.
func Release(r int) spec.Invocation { return spec.NewInvocation("release", r) }

// Avail builds the avail invocation (reads the number of free resources).
func Avail() spec.Invocation { return spec.NewInvocation("avail") }

// AllocGot is [alloc, r].
func AllocGot(r int) spec.Operation {
	return spec.Op(Alloc(), spec.Response(strconv.Itoa(r)))
}

// ReleaseOk is [release(r), ok].
func ReleaseOk(r int) spec.Operation { return spec.Op(Release(r), "ok") }

// AvailIs is [avail, n].
func AvailIs(n int) spec.Operation {
	return spec.Op(Avail(), spec.Response(strconv.Itoa(n)))
}

// Name implements Type.
func (ResourcePool) Name() string { return "resource-pool" }

func encodePool(free map[int]bool) string {
	var xs []int
	for r, f := range free {
		if f {
			xs = append(xs, r)
		}
	}
	sort.Ints(xs)
	parts := make([]string, len(xs))
	for i, r := range xs {
		parts[i] = strconv.Itoa(r)
	}
	return "free{" + strings.Join(parts, ",") + "}"
}

func decodePool(s string) (map[int]bool, error) {
	if !strings.HasPrefix(s, "free{") || !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("adt: malformed pool state %q", s)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(s, "free{"), "}")
	m := make(map[int]bool)
	if body == "" {
		return m, nil
	}
	for _, p := range strings.Split(body, ",") {
		r, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("adt: malformed pool resource %q", p)
		}
		m[r] = true
	}
	return m, nil
}

// Spec implements Type: states are the set of free resources; alloc is
// partial (no response when none free) and nondeterministic (any free
// resource may be returned).
func (t ResourcePool) Spec() spec.Enumerable {
	var ops []spec.Operation
	for _, r := range t.Resources {
		ops = append(ops, AllocGot(r), ReleaseOk(r))
	}
	for n := 0; n <= len(t.Resources); n++ {
		ops = append(ops, AvailIs(n))
	}
	allFree := make(map[int]bool, len(t.Resources))
	for _, r := range t.Resources {
		allFree[r] = true
	}
	return &spec.FuncSpec{
		SpecName: t.Name(),
		Start:    []string{encodePool(allFree)},
		Ops:      ops,
		NextFunc: func(state string, op spec.Operation) []string {
			free, err := decodePool(state)
			if err != nil {
				return nil
			}
			switch op.Inv.Name {
			case "alloc":
				r := mustInt(string(op.Res))
				if !free[r] {
					return nil
				}
				delete(free, r)
				return []string{encodePool(free)}
			case "release":
				r := mustInt(op.Inv.Args)
				if free[r] {
					return nil // releasing a free resource is illegal
				}
				free[r] = true
				return []string{encodePool(free)}
			case "avail":
				n := 0
				for _, f := range free {
					if f {
						n++
					}
				}
				if string(op.Res) != strconv.Itoa(n) {
					return nil
				}
				return []string{state}
			}
			return nil
		},
	}
}

// Checker builds a commute.Checker over the exact finite spec.
func (t ResourcePool) Checker() *commute.Checker { return commute.NewChecker(t.Spec()) }

// NFC implements Type; derived exactly from the finite specification.
func (t ResourcePool) NFC() commute.Relation { return t.Checker().NFCRelation() }

// NRBC implements Type; derived exactly from the finite specification.
func (t ResourcePool) NRBC() commute.Relation { return t.Checker().NRBCRelation() }

// RW implements Type: avail is the read operation.
func (t ResourcePool) RW() commute.Relation {
	return readOnlyRelation(t.Name(), func(op spec.Operation) bool {
		return op.Inv.Name == "avail"
	})
}

// Machine implements Type. The runtime machine refines the nondeterministic
// alloc by returning the lowest-numbered free resource; alloc on an empty
// pool returns ErrNotEnabled.
func (t ResourcePool) Machine() Machine {
	return poolMachine{resources: append([]int(nil), t.Resources...)}
}

// PoolValue is the runtime state of a ResourcePool: the set of free
// resources, changed in place.
type PoolValue map[int]bool

// Clone implements Value.
func (v PoolValue) Clone() Value {
	out := make(PoolValue, len(v))
	out.CopyFrom(v)
	return out
}

// CopyFrom implements Value.
func (v PoolValue) CopyFrom(src Value) {
	clear(v)
	for r, f := range src.(PoolValue) {
		if f {
			v[r] = true
		}
	}
}

// Encode implements Value.
func (v PoolValue) Encode() string { return encodePool(v) }

type poolMachine struct{ resources []int }

func (poolMachine) Name() string { return "resource-pool" }

func (m poolMachine) Init() Value {
	v := make(PoolValue, len(m.resources))
	for _, r := range m.resources {
		v[r] = true
	}
	return v
}

func (m poolMachine) Peek(v Value, inv spec.Invocation) (spec.Response, error) {
	free, err := stateOf[PoolValue](v, "resource-pool")
	if err != nil {
		return "", err
	}
	switch inv.Name {
	case "alloc":
		lowest, found := 0, false
		for r, f := range free {
			if f && (!found || r < lowest) {
				lowest, found = r, true
			}
		}
		if !found {
			return "", ErrNotEnabled
		}
		return spec.Response(strconv.Itoa(lowest)), nil
	case "release":
		if r := mustInt(inv.Args); free[r] {
			return "", fmt.Errorf("adt: resource-pool: release of free resource %d", r)
		}
		return "ok", nil
	case "avail":
		n := 0
		for _, f := range free {
			if f {
				n++
			}
		}
		return spec.Response(strconv.Itoa(n)), nil
	}
	return "", fmt.Errorf("adt: resource-pool: unknown invocation %s", inv)
}

func (poolMachine) Apply(v Value, op spec.Operation) error { return poolStep(v, op, true) }

func (poolMachine) Undo(v Value, op spec.Operation) error { return poolStep(v, op, false) }

// poolStep applies op to the free set in place (forward) or undoes it: an
// alloc takes its resource out, a release puts its resource back.
func poolStep(v Value, op spec.Operation, forward bool) error {
	free, err := stateOf[PoolValue](v, "resource-pool")
	if err != nil {
		return err
	}
	var r int
	switch op.Inv.Name {
	case "alloc":
		r = mustInt(string(op.Res))
		forward = !forward
	case "release":
		r = mustInt(op.Inv.Args)
	case "avail":
		return nil
	default:
		return fmt.Errorf("adt: resource-pool: cannot step %s", op)
	}
	if forward {
		free[r] = true
	} else {
		delete(free, r)
	}
	return nil
}
