package adt

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/spec"
)

// TestQueueOrderSensitivity: enqueues of different elements do not commute
// in either sense — queue order is observable.
func TestQueueOrderSensitivity(t *testing.T) {
	q := DefaultFIFOQueue()
	c := q.Checker()
	if c.CommuteForward(EnqOk("a"), EnqOk("b")) {
		t.Error("enq(a) and enq(b) should not commute forward")
	}
	if c.RightCommutesBackward(EnqOk("a"), EnqOk("b")) {
		t.Error("enq(a) should not right-commute-backward with enq(b)")
	}
	// Dequeues of different elements are never co-located; deq is
	// deterministic given the state.
	if !c.Deterministic(Deq()) {
		t.Error("deq should be deterministic")
	}
	// enq is total (ok or full), deq is total (elem or empty).
	if !c.Total(Enq("a")) || !c.Total(Deq()) {
		t.Error("enq and deq should be total")
	}
}

func TestQueueMachine(t *testing.T) {
	m := DefaultFIFOQueue().Machine()
	v := m.Init()
	for _, c := range []struct {
		inv  spec.Invocation
		want spec.Response
	}{
		{Enq("a"), "ok"}, {Enq("b"), "ok"}, {Enq("a"), "ok"}, {Enq("b"), "full"},
		{Deq(), "a"}, {Deq(), "b"},
	} {
		if res := mustStep(t, m, v, c.inv); res != c.want {
			t.Fatalf("%s = %v, want %v", c.inv, res, c.want)
		}
	}
	if v.Encode() != "[a]" {
		t.Errorf("state = %s, want [a]", v.Encode())
	}
}

func TestQueueMachineUndo(t *testing.T) {
	m := DefaultFIFOQueue().Machine()
	v := m.Init()
	mustStep(t, m, v, Enq("a"))
	mustStep(t, m, v, Enq("b"))
	// Undo the enq of b.
	if err := m.Undo(v, EnqOk("b")); err != nil || v.Encode() != "[a]" {
		t.Fatalf("undo enq: %v %v", v.Encode(), err)
	}
	mustStep(t, m, v, Enq("b"))
	// Undo a deq pushes the element back on the front.
	if res := mustStep(t, m, v, Deq()); res != "a" {
		t.Fatalf("deq = %v", res)
	}
	if err := m.Undo(v, DeqElem("a")); err != nil || v.Encode() != "[a;b]" {
		t.Fatalf("undo deq: %v %v", v.Encode(), err)
	}
}

func TestQueueMachineRefinesSpec(t *testing.T) {
	q := DefaultFIFOQueue()
	rng := rand.New(rand.NewSource(3))
	var script []spec.Invocation
	for step := 0; step < 40; step++ {
		if rng.Intn(2) == 0 {
			script = append(script, Enq([]string{"a", "b"}[rng.Intn(2)]))
		} else {
			script = append(script, Deq())
		}
	}
	checkRefines(t, q.Machine(), q.Spec(), script)
}

// TestKVPerKeyConflicts: puts to the same key conflict under both NFC and
// NRBC; puts to different keys never conflict.
func TestKVPerKeyConflicts(t *testing.T) {
	kv := DefaultKVStore()
	nfc := kv.NFC()
	nrbc := kv.NRBC()
	if !nfc.Conflicts(PutOk("x", "0"), PutOk("x", "1")) {
		t.Error("same-key puts should conflict under NFC")
	}
	if !nrbc.Conflicts(PutOk("x", "0"), PutOk("x", "1")) {
		t.Error("same-key puts should conflict under NRBC")
	}
	if nfc.Conflicts(PutOk("x", "0"), PutOk("y", "1")) {
		t.Error("different-key puts should not conflict under NFC")
	}
	if nrbc.Conflicts(PutOk("x", "0"), PutOk("y", "1")) {
		t.Error("different-key puts should not conflict under NRBC")
	}
	// Blind writes: two puts of the SAME value to the same key. Under NFC
	// they commute (states converge); order still matters for NRBC? The
	// final state is identical, so they commute backward too.
	if nfc.Conflicts(PutOk("x", "0"), PutOk("x", "0")) {
		t.Error("identical puts commute forward (states converge)")
	}
	// Gets conflict with same-key puts, not with other keys.
	if !nfc.Conflicts(GetIs("x", "0"), PutOk("x", "1")) {
		t.Error("get should conflict with same-key put under NFC")
	}
	if nfc.Conflicts(GetIs("x", "0"), PutOk("y", "1")) {
		t.Error("get should not conflict with other-key put")
	}
}

func TestKVMachineAndBeforeImageUndo(t *testing.T) {
	kv := DefaultKVStore()
	m := kv.Machine()
	bi, ok := m.(BeforeImageUndoer)
	if !ok {
		t.Fatal("kv machine must support before-image undo")
	}
	v := m.Init()
	if res := mustStep(t, m, v, Put("x", "1")); res != "ok" {
		t.Fatalf("put: %v", res)
	}
	// Capture before overwriting, then undo restores the old cell.
	tok := bi.CaptureBefore(v, Put("x", "0"))
	mustStep(t, m, v, Put("x", "0"))
	if err := bi.UndoWithBefore(v, PutOk("x", "0"), tok); err != nil || v.Encode() != "<x=1>" {
		t.Fatalf("undo put: %v %v", v.Encode(), err)
	}
	// Undo of a put into an absent key deletes the key.
	tok2 := bi.CaptureBefore(v, Put("y", "5"))
	mustStep(t, m, v, Put("y", "5"))
	if err := bi.UndoWithBefore(v, PutOk("y", "5"), tok2); err != nil || v.Encode() != "<x=1>" {
		t.Fatalf("undo put-into-absent: %v %v", v.Encode(), err)
	}
	// Plain Undo without a before-image must refuse for puts.
	if err := m.Undo(v, PutOk("y", "5")); err == nil {
		t.Error("plain Undo of a put should fail")
	}
	// Gets are undoable trivially.
	if err := m.Undo(v, GetIs("y", "5")); err != nil {
		t.Errorf("undo of get should succeed: %v", err)
	}
}

func TestRegisterRelationsCollapse(t *testing.T) {
	r := DefaultRegister()
	c := r.Checker()
	// For a register, writes of different values never commute, reads
	// always commute, and NFC = NRBC on write pairs of distinct values.
	if c.CommuteForward(WriteOk("1"), WriteOk("2")) {
		t.Error("writes should not commute forward")
	}
	if c.RightCommutesBackward(WriteOk("1"), WriteOk("2")) {
		t.Error("writes should not commute backward")
	}
	if !c.CommuteForward(ReadIs("1"), ReadIs("1")) {
		t.Error("reads should commute forward")
	}
	if !c.RightCommutesBackward(ReadIs("1"), ReadIs("1")) {
		t.Error("reads should commute backward")
	}
	// Identical writes converge: FC holds.
	if !c.CommuteForward(WriteOk("1"), WriteOk("1")) {
		t.Error("identical writes converge and commute forward")
	}
}

func TestRegisterMachineBeforeImage(t *testing.T) {
	m := DefaultRegister().Machine()
	bi := m.(BeforeImageUndoer)
	v := m.Init()
	tok := bi.CaptureBefore(v, WriteReg("2"))
	mustStep(t, m, v, WriteReg("2"))
	if err := bi.UndoWithBefore(v, WriteOk("2"), tok); err != nil || v.Encode() != "0" {
		t.Fatalf("undo write: %v %v", v.Encode(), err)
	}
}

// TestPoolPartialNondeterministic: alloc is partial and nondeterministic in
// the spec; the machine refines it deterministically.
func TestPoolPartialNondeterministic(t *testing.T) {
	p := DefaultResourcePool()
	c := p.Checker()
	if c.Total(Alloc()) {
		t.Error("alloc should be partial (empty pool has no response)")
	}
	if c.Deterministic(Alloc()) {
		t.Error("alloc should be nondeterministic")
	}
	if !c.Total(Avail()) || !c.Deterministic(Avail()) {
		t.Error("avail should be total and deterministic")
	}
}

func TestPoolMachine(t *testing.T) {
	m := DefaultResourcePool().Machine()
	v := m.Init()
	if res := mustStep(t, m, v, Alloc()); res != "1" {
		t.Fatalf("alloc: %v (machine picks lowest)", res)
	}
	if res := mustStep(t, m, v, Avail()); res != "2" {
		t.Fatalf("avail: %v", res)
	}
	mustStep(t, m, v, Alloc())
	mustStep(t, m, v, Alloc())
	if _, err := step(m, v, Alloc()); !errors.Is(err, ErrNotEnabled) {
		t.Fatalf("alloc on empty pool should be ErrNotEnabled, got %v", err)
	}
	if res := mustStep(t, m, v, Release(2)); res != "ok" {
		t.Fatalf("release: %v", res)
	}
	if _, err := step(m, v, Release(2)); err == nil {
		t.Error("double release should fail")
	}
}

func TestPoolMachineUndo(t *testing.T) {
	m := DefaultResourcePool().Machine()
	v := m.Init()
	res := mustStep(t, m, v, Alloc())
	if err := m.Undo(v, AllocGot(mustInt(string(res)))); err != nil || v.Encode() != "free{1,2,3}" {
		t.Fatalf("undo alloc: %v %v", v.Encode(), err)
	}
	mustStep(t, m, v, Alloc())
	mustStep(t, m, v, Release(1))
	if err := m.Undo(v, ReleaseOk(1)); err != nil || v.Encode() != "free{2,3}" {
		t.Fatalf("undo release: %v %v", v.Encode(), err)
	}
}

// TestPoolMachineRefinesSpec: the machine's lowest-first allocation is a
// legal refinement of the nondeterministic spec.
func TestPoolMachineRefinesSpec(t *testing.T) {
	p := DefaultResourcePool()
	checkRefines(t, p.Machine(), p.Spec(),
		[]spec.Invocation{Alloc(), Alloc(), Avail(), Release(1), Alloc(), Avail()})
}

// TestAllTypesRWContainsDerived: Lemmas 11–12 instantiated per type — each
// type's RW relation contains the derived NFC and NRBC over the window
// alphabet.
func TestAllTypesRWContainsDerived(t *testing.T) {
	types := []Type{
		DefaultBankAccount(), DefaultIntSet(), DefaultFIFOQueue(),
		DefaultKVStore(), DefaultRegister(), DefaultResourcePool(),
	}
	for _, ty := range types {
		sp := ty.Spec()
		rw := ty.RW()
		nfc := ty.NFC()
		nrbc := ty.NRBC()
		for _, p := range sp.Alphabet() {
			for _, q := range sp.Alphabet() {
				if nfc.Conflicts(p, q) && !rw.Conflicts(p, q) {
					t.Errorf("%s: RW misses NFC pair (%s,%s)", ty.Name(), p, q)
				}
				if nrbc.Conflicts(p, q) && !rw.Conflicts(p, q) {
					t.Errorf("%s: RW misses NRBC pair (%s,%s)", ty.Name(), p, q)
				}
			}
		}
	}
}

// TestValueEncodeStability: Encode is canonical — applying Clone does not
// change the encoding.
func TestValueEncodeStability(t *testing.T) {
	ba, q, reg := BAValue(7), QueueValue{"a", "b"}, RegValue("2")
	vals := []Value{
		&ba, SetValue{2: true, 1: true}, &q,
		KVValue{"x": "1"}, &reg, PoolValue{1: true, 3: true},
	}
	for _, v := range vals {
		if v.Clone().Encode() != v.Encode() {
			t.Errorf("Clone changes encoding for %T", v)
		}
	}
}
