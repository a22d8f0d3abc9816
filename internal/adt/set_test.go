package adt

import (
	"testing"

	"repro/internal/commute"
	"repro/internal/spec"
)

// Checker builds a commute.Checker over the exact finite spec, for the
// tests that derive the set's relations to check the analytic ones.
func (t IntSet) Checker() *commute.Checker { return commute.NewChecker(t.Spec()) }

func setFigureOps(x int, n int) []spec.Operation {
	return []spec.Operation{
		InsertAdded(x), InsertDup(x), RemoveRemoved(x), RemoveAbsent(x),
		MemberTrue(x), MemberFalse(x), SizeIs(n),
	}
}

// TestSetAnalyticMatchesDerivedNFC cross-checks the hand-derived NFC
// relation against the exact checker over the full finite alphabet.
func TestSetAnalyticMatchesDerivedNFC(t *testing.T) {
	st := DefaultIntSet()
	c := st.Checker()
	analytic := st.NFC()
	for _, p := range st.Spec().Alphabet() {
		for _, q := range st.Spec().Alphabet() {
			derived := !c.CommuteForward(p, q)
			want := analytic.Conflicts(p, q)
			if derived != want {
				t.Errorf("NFC mismatch at (%s,%s): derived=%v, analytic=%v", p, q, derived, want)
			}
		}
	}
}

// TestSetAnalyticMatchesDerivedNRBC cross-checks the hand-derived NRBC
// relation against the exact checker.
func TestSetAnalyticMatchesDerivedNRBC(t *testing.T) {
	st := DefaultIntSet()
	c := st.Checker()
	analytic := st.NRBC()
	for _, p := range st.Spec().Alphabet() {
		for _, q := range st.Spec().Alphabet() {
			derived := !c.RightCommutesBackward(p, q)
			want := analytic.Conflicts(p, q)
			if derived != want {
				t.Errorf("NRBC mismatch at (%s,%s): derived=%v, analytic=%v", p, q, derived, want)
			}
		}
	}
}

// TestSetIncomparability: the set exhibits the same incomparability as the
// bank account, with different witnesses.
func TestSetIncomparability(t *testing.T) {
	st := DefaultIntSet()
	nfc, nrbc := st.NFC(), st.NRBC()
	// Two inserts of the same element that both report "added" cannot both
	// be serialized — NFC — yet the second can always be pushed backward —
	// not NRBC (the sequence added·added is simply illegal).
	if !nfc.Conflicts(InsertAdded(1), InsertAdded(1)) {
		t.Error("(ins-added, ins-added) should be in NFC")
	}
	if nrbc.Conflicts(InsertAdded(1), InsertAdded(1)) {
		t.Error("(ins-added, ins-added) should not be in NRBC")
	}
	// A duplicate-insert after an uncommitted insert-added is fine for DU
	// (vacuous FC) but not UIP.
	if nfc.Conflicts(InsertDup(1), InsertAdded(1)) {
		t.Error("(ins-dup, ins-added) should not be in NFC")
	}
	if !nrbc.Conflicts(InsertDup(1), InsertAdded(1)) {
		t.Error("(ins-dup, ins-added) should be in NRBC")
	}
}

// TestSetDistinctElementsIndependent: operations on distinct elements never
// conflict (except via size).
func TestSetDistinctElementsIndependent(t *testing.T) {
	st := DefaultIntSet()
	nfc, nrbc := st.NFC(), st.NRBC()
	ops1 := setFigureOps(1, 0)[:6]
	ops2 := setFigureOps(2, 0)[:6]
	for _, p := range ops1 {
		for _, q := range ops2 {
			if nfc.Conflicts(p, q) {
				t.Errorf("(%s,%s) on distinct elements should not be in NFC", p, q)
			}
			if nrbc.Conflicts(p, q) {
				t.Errorf("(%s,%s) on distinct elements should not be in NRBC", p, q)
			}
		}
	}
}

func TestSetMachine(t *testing.T) {
	m := DefaultIntSet().Machine()
	v := m.Init()
	for _, c := range []struct {
		inv  spec.Invocation
		want spec.Response
	}{
		{Insert(1), "added"}, {Insert(1), "dup"}, {Member(1), "true"},
		{Size(), "1"}, {Remove(1), "removed"}, {Remove(1), "absent"},
	} {
		if res := mustStep(t, m, v, c.inv); res != c.want {
			t.Fatalf("%s = %v, want %v", c.inv, res, c.want)
		}
	}
	if v.Encode() != "{}" {
		t.Errorf("final state = %s", v.Encode())
	}
}

func TestSetMachineUndo(t *testing.T) {
	m := DefaultIntSet().Machine()
	v := m.Init()
	mustStep(t, m, v, Insert(2))
	if err := m.Undo(v, InsertAdded(2)); err != nil || v.Encode() != "{}" {
		t.Fatalf("undo insert-added: %v %v", v.Encode(), err)
	}
	// Undo of a dup insert is a no-op.
	mustStep(t, m, v, Insert(2))
	mustStep(t, m, v, Insert(2))
	if err := m.Undo(v, InsertDup(2)); err != nil || v.Encode() != "{2}" {
		t.Fatalf("undo insert-dup: %v %v", v.Encode(), err)
	}
	// Undo remove-removed restores the element.
	mustStep(t, m, v, Remove(2))
	if err := m.Undo(v, RemoveRemoved(2)); err != nil || v.Encode() != "{2}" {
		t.Fatalf("undo remove-removed: %v %v", v.Encode(), err)
	}
}

// TestSetMachineRefinesSpec: machine executions are legal spec sequences.
func TestSetMachineRefinesSpec(t *testing.T) {
	st := DefaultIntSet()
	checkRefines(t, st.Machine(), st.Spec(), []spec.Invocation{
		Insert(1), Insert(2), Insert(1), Member(3), Remove(2), Size(),
		Remove(2), Member(1), Insert(3), Size(),
	})
}

func TestSetValueCloneIndependence(t *testing.T) {
	v := SetValue{1: true}
	c := v.Clone().(SetValue)
	c[2] = true
	if v[2] {
		t.Error("Clone shares storage")
	}
}
