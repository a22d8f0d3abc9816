package adt

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/spec"
)

// step runs inv on v the way the recovery stores do: Peek for the
// response, then Apply of the operation in place.
func step(m Machine, v Value, inv spec.Invocation) (spec.Response, error) {
	res, err := m.Peek(v, inv)
	if err != nil {
		return "", err
	}
	return res, m.Apply(v, spec.Op(inv, res))
}

// mustStep is step for a test that expects success.
func mustStep(t testing.TB, m Machine, v Value, inv spec.Invocation) spec.Response {
	t.Helper()
	res, err := step(m, v, inv)
	if err != nil {
		t.Fatalf("%s: %v", inv, err)
	}
	return res
}

// undo reverses op on v in place, through the before token when the
// machine keeps before images.
func undo(m Machine, v Value, op spec.Operation, before any) error {
	if bi, ok := m.(BeforeImageUndoer); ok {
		return bi.UndoWithBefore(v, op, before)
	}
	return m.Undo(v, op)
}

// checkRefines runs script on a fresh state and fails unless every prefix
// of the executed operations is legal in sp, Peek leaves the state as it
// was, and undoing each operation right after applying it restores the
// state before it.
func checkRefines(t *testing.T, m Machine, sp spec.Spec, script []spec.Invocation) {
	t.Helper()
	v := m.Init()
	var seq spec.Seq
	for _, inv := range script {
		before := v.Encode()
		res, err := m.Peek(v, inv)
		if err != nil {
			t.Fatalf("Peek(%s): %v", inv, err)
		}
		if got := v.Encode(); got != before {
			t.Fatalf("Peek(%s) changed the state %s to %s", inv, before, got)
		}
		op := spec.Op(inv, res)
		seq = append(seq, op)
		if !sp.Legal(seq) {
			t.Fatalf("machine produced spec-illegal sequence %s", seq)
		}
		var tok any
		if bi, ok := m.(BeforeImageUndoer); ok {
			tok = bi.CaptureBefore(v, inv)
		}
		trial := v.Clone()
		if err := m.Apply(trial, op); err != nil {
			t.Fatalf("Apply(%s): %v", op, err)
		}
		if err := undo(m, trial, op, tok); err != nil || trial.Encode() != before {
			t.Fatalf("undo of %s left %s (%v), want %s", op, trial.Encode(), err, before)
		}
		if err := m.Apply(v, op); err != nil {
			t.Fatalf("Apply(%s): %v", op, err)
		}
	}
}

// TestMachineStepAllocFree: a step of a scalar machine changes its state in
// place, so Peek, Apply and Undo of a deposit, a withdrawal and a refused
// withdrawal (an increment, a decrement and a refused decrement on the
// counter) allocate nothing, and so do a kv-store's get, put and del.
func TestMachineStepAllocFree(t *testing.T) {
	ba := BankAccount{InitialBalance: 50, MaxBalance: 100, Amounts: []int{1}}
	ctr := EscrowCounter{Initial: 50, Max: 100, Amounts: []int{1}}
	cases := []struct {
		name string
		m    Machine
		invs []spec.Invocation
	}{
		{"bank-account", ba.Machine(), []spec.Invocation{Deposit(3), Withdraw(2), Withdraw(1000)}},
		{"escrow-counter", ctr.Machine(), []spec.Invocation{Inc(3), Dec(2), Dec(1000)}},
	}
	for _, c := range cases {
		v := c.m.Init()
		for _, inv := range c.invs {
			allocs := testing.AllocsPerRun(100, func() {
				res, err := c.m.Peek(v, inv)
				if err != nil {
					t.Fatal(err)
				}
				op := spec.Op(inv, res)
				if err := c.m.Apply(v, op); err != nil {
					t.Fatal(err)
				}
				if err := c.m.Undo(v, op); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: Peek+Apply+Undo of %s: %v allocs, want 0", c.name, inv, allocs)
			}
		}
		if got := v.Encode(); got != "50" {
			t.Errorf("%s: state %s after the apply/undo pairs, want 50", c.name, got)
		}
	}
	// The kv-store undoes a put or del through a before-image the recovery
	// store keeps, so its case is a run of get, put and del steps that
	// restore each other.
	kv := KVStore{}.Machine()
	v := kv.Init()
	mustStep(t, kv, v, Put("x", "1"))
	mustStep(t, kv, v, Put("y", "1"))
	steps := []spec.Invocation{Get("x"), Put("x", "2"), Get("x"), Put("x", "1"), Del("y"), Get("y"), Put("y", "1")}
	allocs := testing.AllocsPerRun(100, func() {
		for _, inv := range steps {
			res, err := kv.Peek(v, inv)
			if err != nil {
				t.Fatal(err)
			}
			if err := kv.Apply(v, spec.Op(inv, res)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("kv-store: Peek+Apply of get, put and del: %v allocs, want 0", allocs)
	}
	if got := v.Encode(); got != "<x=1,y=1>" {
		t.Errorf("kv-store: state %s after the steps, want <x=1,y=1>", got)
	}
}

// benchSizes are the state sizes the in-place update benchmarks compare:
// an update's cost must not grow with the state it changes.
var benchSizes = []int{1 << 10, 1 << 16}

// BenchmarkSetInsert: Peek and Apply of an insert that adds an element,
// then its Undo, on a set of n elements.
func BenchmarkSetInsert(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := IntSet{}.Machine()
			v := m.Init()
			for i := 0; i < n; i++ {
				mustStep(b, m, v, Insert(i))
			}
			inv := Insert(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := m.Peek(v, inv)
				if err != nil {
					b.Fatal(err)
				}
				op := spec.Op(inv, res)
				if err := m.Apply(v, op); err != nil {
					b.Fatal(err)
				}
				if err := m.Undo(v, op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKVPut: Peek and Apply of a put that overwrites one of n keys,
// cycling through 64 of them.
func BenchmarkKVPut(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := KVStore{}.Machine()
			v := m.Init()
			for i := 0; i < n; i++ {
				mustStep(b, m, v, Put("k"+strconv.Itoa(i), "0"))
			}
			invs := make([]spec.Invocation, 64)
			for i := range invs {
				invs[i] = Put("k"+strconv.Itoa(i*n/len(invs)), strconv.Itoa(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inv := invs[i%len(invs)]
				res, err := m.Peek(v, inv)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Apply(v, spec.Op(inv, res)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
