package spec

import (
	"testing"
	"testing/quick"
)

func opA() Operation { return Op(NewInvocation("a"), "ok") }
func opB() Operation { return Op(NewInvocation("b"), "ok") }
func opC() Operation { return Op(NewInvocation("c"), "ok") }

// twoStep builds the automaton accepting prefixes of a·b.
func twoStep() *Automaton {
	m := NewAutomaton("two-step", "0")
	m.AddTransition("0", opA(), "1")
	m.AddTransition("1", opB(), "2")
	return m.Freeze()
}

func TestNewInvocationRendering(t *testing.T) {
	cases := []struct {
		inv  Invocation
		want string
	}{
		{NewInvocation("balance"), "balance"},
		{NewInvocation("deposit", 5), "deposit(5)"},
		{NewInvocation("put", "k", "v"), "put(k,v)"},
		{NewInvocation("mix", 1, "x", true), "mix(1,x,true)"},
	}
	for _, c := range cases {
		if got := c.inv.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestOperationString(t *testing.T) {
	op := Op(NewInvocation("withdraw", 3), "ok")
	if got := op.String(); got != "[withdraw(3),ok]" {
		t.Errorf("String() = %q", got)
	}
}

func TestSeqString(t *testing.T) {
	if got := (Seq{}).String(); got != "Λ" {
		t.Errorf("empty Seq String = %q", got)
	}
	s := Seq{opA(), opB()}
	if got := s.String(); got != "[a,ok]·[b,ok]" {
		t.Errorf("Seq String = %q", got)
	}
}

func TestSeqCloneIndependent(t *testing.T) {
	s := Seq{opA(), opB()}
	c := s.Clone()
	c[0] = opC()
	if s[0] != opA() {
		t.Error("Clone shares storage with original")
	}
}

func TestConcat(t *testing.T) {
	got := Concat(Seq{opA()}, nil, Seq{opB(), opC()})
	want := Seq{opA(), opB(), opC()}
	if len(got) != len(want) {
		t.Fatalf("Concat length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Concat[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAutomatonLegalPrefixes(t *testing.T) {
	m := twoStep()
	cases := []struct {
		seq  Seq
		want bool
	}{
		{Seq{}, true},
		{Seq{opA()}, true},
		{Seq{opA(), opB()}, true},
		{Seq{opB()}, false},
		{Seq{opA(), opA()}, false},
		{Seq{opA(), opB(), opA()}, false},
	}
	for _, c := range cases {
		if got := m.Legal(c.seq); got != c.want {
			t.Errorf("Legal(%s) = %v, want %v", c.seq, got, c.want)
		}
	}
}

func TestAutomatonStates(t *testing.T) {
	m := twoStep()
	states := m.States()
	if len(states) != 3 {
		t.Fatalf("States() = %v, want 3 states", states)
	}
	if states[0] != "0" {
		t.Errorf("first state = %q, want initial", states[0])
	}
}

func TestAutomatonDeterministic(t *testing.T) {
	if !twoStep().Deterministic() {
		t.Error("two-step automaton should be deterministic")
	}
	n := NewAutomaton("nd", "0")
	n.AddTransition("0", opA(), "1")
	n.AddTransition("0", opA(), "2")
	n.Freeze()
	if n.Deterministic() {
		t.Error("automaton with two a-successors should be nondeterministic")
	}
}

func TestAutomatonFreezePanics(t *testing.T) {
	m := twoStep()
	defer func() {
		if recover() == nil {
			t.Error("AddTransition after Freeze should panic")
		}
	}()
	m.AddTransition("0", opC(), "9")
}

func TestNondeterministicLegality(t *testing.T) {
	// a leads to two states; b is enabled only from one of them. The subset
	// simulation must keep both alive.
	m := NewAutomaton("nd", "0")
	m.AddTransition("0", opA(), "1")
	m.AddTransition("0", opA(), "2")
	m.AddTransition("2", opB(), "3")
	m.Freeze()
	if !m.Legal(Seq{opA(), opB()}) {
		t.Error("a·b should be legal via the nondeterministic branch")
	}
	if m.Legal(Seq{opA(), opB(), opB()}) {
		t.Error("a·b·b should be illegal")
	}
}

func TestRunAndStep(t *testing.T) {
	m := twoStep()
	got := Run(m, m.Initial(), Seq{opA()})
	if len(got) != 1 || got[0] != "1" {
		t.Errorf("Run(a) = %v, want [1]", got)
	}
	if Run(m, m.Initial(), Seq{opB()}) != nil {
		t.Error("Run(b) should be empty from initial")
	}
	if got := Step(m, []string{"0", "1"}, opB()); len(got) != 1 || got[0] != "2" {
		t.Errorf("Step({0,1}, b) = %v, want [2]", got)
	}
}

func TestStateSetKeyCanonical(t *testing.T) {
	if StateSetKey([]string{"b", "a"}) != StateSetKey([]string{"a", "b"}) {
		t.Error("StateSetKey should be order-insensitive")
	}
	if StateSetKey(nil) != "" {
		t.Error("StateSetKey(nil) should be empty")
	}
	// Property: key equality is permutation-invariance on small alphabets.
	f := func(perm []string) bool {
		k1 := StateSetKey(perm)
		rev := make([]string, len(perm))
		for i, s := range perm {
			rev[len(perm)-1-i] = s
		}
		return k1 == StateSetKey(rev)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponsesAndInvocations(t *testing.T) {
	m := NewAutomaton("resp", "0")
	i := NewInvocation("i")
	m.AddTransition("0", Op(i, "x"), "1")
	m.AddTransition("0", Op(i, "y"), "2")
	m.AddTransition("1", Op(NewInvocation("j"), "z"), "3")
	m.Freeze()
	rs := Responses(m, i)
	if len(rs) != 2 || rs[0] != "x" || rs[1] != "y" {
		t.Errorf("Responses = %v", rs)
	}
	invs := Invocations(m)
	if len(invs) != 2 || invs[0].Name != "i" || invs[1].Name != "j" {
		t.Errorf("Invocations = %v", invs)
	}
}

func TestPrefixClosureProperty(t *testing.T) {
	// Property-based: for random sequences over the two-step alphabet, if a
	// sequence is legal then all its prefixes are legal.
	m := twoStep()
	alphabet := []Operation{opA(), opB()}
	f := func(picks []byte) bool {
		var seq Seq
		for _, p := range picks {
			seq = append(seq, alphabet[int(p)%len(alphabet)])
		}
		if !m.Legal(seq) {
			return true
		}
		for i := range seq {
			if !m.Legal(seq[:i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFuncSpecAdapters(t *testing.T) {
	fs := &FuncSpec{
		SpecName: "mod3",
		Start:    []string{"0"},
		Ops:      []Operation{opA()},
		NextFunc: func(state string, op Operation) []string {
			switch state {
			case "0":
				return []string{"1"}
			case "1":
				return []string{"2"}
			default:
				return nil
			}
		},
	}
	if fs.Name() != "mod3" {
		t.Errorf("Name = %q", fs.Name())
	}
	if !fs.Legal(Seq{opA(), opA()}) {
		t.Error("a·a should be legal")
	}
	if fs.Legal(Seq{opA(), opA(), opA()}) {
		t.Error("a·a·a should be illegal")
	}
}

// Clone returns a copy of the sequence.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// Concat returns the concatenation of sequences.
func Concat(seqs ...Seq) Seq {
	var out Seq
	for _, s := range seqs {
		out = append(out, s...)
	}
	return out
}

// Deterministic reports whether every (state, operation) pair has at most
// one successor among reachable states.
func (a *Automaton) Deterministic() bool {
	for _, s := range a.States() {
		for _, op := range a.alphabet {
			if len(dedup(a.Next(s, op))) > 1 {
				return false
			}
		}
	}
	return true
}

// States returns all states reachable from the initial states, in BFS
// order. Useful for exhaustive verification and debugging.
func (a *Automaton) States() []string {
	seen := make(map[string]bool)
	var queue, out []string
	for _, s := range a.initial {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		out = append(out, s)
		// Deterministic iteration: walk the alphabet in order.
		for _, op := range a.alphabet {
			for _, t := range a.Next(s, op) {
				if !seen[t] {
					seen[t] = true
					queue = append(queue, t)
				}
			}
		}
	}
	return out
}
