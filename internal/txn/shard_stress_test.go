package txn

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/commute"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/locking"
	"repro/internal/recovery"
	"repro/internal/spec"
)

// TestShardedRegistryPlacement: registered objects remain reachable, and
// duplicate registration is rejected.
func TestShardedRegistryPlacement(t *testing.T) {
	ba := adt.DefaultBankAccount()
	e := NewEngine(Options{RecordHistory: true})
	for i := 0; i < 32; i++ {
		id := history.ObjectID(string(rune('A'+i%26)) + string(rune('0'+i/26)))
		if err := e.Register(id, ba, ba.NRBC(), UndoLogRecovery); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.Object(id); !ok {
			t.Fatalf("object %s not found after register", id)
		}
		if err := e.Register(id, ba, ba.NRBC(), UndoLogRecovery); err == nil {
			t.Fatalf("duplicate %s accepted", id)
		}
	}
}

// TestShardedDeadlockVictim reruns the deterministic two-object deadlock
// with both closers racing: the cycle spans two objects, the detector
// chooses exactly one victim, and the history stays well-formed.
func TestShardedDeadlockVictim(t *testing.T) {
	kv := adt.DefaultKVStore()
	e := NewEngine(Options{RecordHistory: true})
	e.MustRegister("X", kv, kv.NFC(), IntentionsRecovery)
	e.MustRegister("Y", kv, kv.NFC(), IntentionsRecovery)
	t1 := e.Begin()
	t2 := e.Begin()
	if _, err := t1.Invoke("X", adt.Put("x", "0")); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Invoke("Y", adt.Put("x", "1")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = t1.Invoke("Y", adt.Put("x", "0")) }()
	go func() { defer wg.Done(); _, errs[1] = t2.Invoke("X", adt.Put("x", "1")) }()
	wg.Wait()
	var dl *locking.ErrDeadlock
	victims := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.As(err, &dl) && errors.Is(err, ErrAborted) {
			victims++
		} else {
			t.Fatalf("errs[%d] = %v (not a deadlock abort)", i, err)
		}
	}
	if victims != 1 {
		t.Fatalf("expected exactly one deadlock victim, got %d (%v)", victims, errs)
	}
	for i, tx := range []*Txn{t1, t2} {
		if errs[i] == nil {
			if err := tx.Commit(); err != nil {
				t.Fatalf("survivor commit: %v", err)
			}
		}
	}
	if err := history.WellFormed(e.History()); err != nil {
		t.Fatalf("history not well-formed: %v", err)
	}
}

// TestShardedEngineStressRace drives 10 goroutines over 16 objects (half
// undo-log/NRBC, half intentions/NFC) on one engine through commits,
// voluntary aborts, and any deadlock victims the interleaving produces,
// then replays the recorded history through the full verification stack:
// well-formedness, per-object acceptance by the abstract automaton, and
// sampled dynamic atomicity. Run under -race this is the proof that the
// concurrent registry, recorder and detector preserve the Theorem 9/10
// correctness story.
func TestShardedEngineStressRace(t *testing.T) {
	ba := adt.DefaultBankAccount()
	const objects = 16
	const workers = 10
	const txnsPerWorker = 8

	e := NewEngine(Options{RecordHistory: true, WAL: backedWAL(t)})
	ids := make([]history.ObjectID, objects)
	rels := map[history.ObjectID]commute.Relation{}
	views := map[history.ObjectID]core.View{}
	objSpecs := map[history.ObjectID]spec.Enumerable{}
	sharedSpec := verifySpec()
	for i := range ids {
		ids[i] = history.ObjectID(string(rune('a'+i)) + "-acct")
		if i%2 == 0 {
			e.MustRegister(ids[i], ba, ba.NRBC(), UndoLogRecovery)
			rels[ids[i]] = ba.NRBC()
			views[ids[i]] = core.UIP
		} else {
			e.MustRegister(ids[i], ba, ba.NFC(), IntentionsRecovery)
			rels[ids[i]] = ba.NFC()
			views[ids[i]] = core.DU
		}
		objSpecs[ids[i]] = sharedSpec
	}

	// Seed every account so withdrawals can succeed.
	seed := e.Begin()
	for _, id := range ids {
		if _, err := seed.Invoke(id, adt.Deposit(6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(31*w) + 5))
			for i := 0; i < txnsPerWorker; i++ {
				tx := e.Begin()
				failed := false
				steps := 2 + rng.Intn(3)
				for s := 0; s < steps; s++ {
					id := ids[rng.Intn(objects)]
					var err error
					switch rng.Intn(3) {
					case 0:
						_, err = tx.Invoke(id, adt.Deposit(1+rng.Intn(2)))
					case 1:
						_, err = tx.Invoke(id, adt.Withdraw(1+rng.Intn(2)))
					default:
						_, err = tx.Invoke(id, adt.Balance())
					}
					if err != nil {
						// Deadlock victims are already aborted; anything
						// else voluntarily aborts.
						if !errors.Is(err, ErrAborted) {
							_ = tx.Abort()
						}
						failed = true
						break
					}
					// Force interleaving so locks are genuinely contended
					// even at GOMAXPROCS=1.
					runtime.Gosched()
				}
				if failed {
					continue
				}
				if rng.Intn(5) == 0 {
					_ = tx.Abort()
				} else if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	m := &e.Metrics
	if m.Commits.Load()+m.Aborts.Load() != m.Begins.Load() {
		t.Errorf("transaction conservation violated: %d begun, %d committed, %d aborted",
			m.Begins.Load(), m.Commits.Load(), m.Aborts.Load())
	}
	if m.Commits.Load() == 0 || m.Aborts.Load() == 0 {
		t.Fatalf("stress must exercise both commits (%d) and aborts (%d)",
			m.Commits.Load(), m.Aborts.Load())
	}

	h := e.History()
	if err := history.WellFormed(h); err != nil {
		t.Fatalf("recorded history not well-formed: %v\n%s", err, h)
	}
	for id, sp := range objSpecs {
		proj := h.ProjectObj(id)
		ok, idx, reason := core.Accepts(id, sp, views[id], rels[id], proj)
		if !ok {
			t.Fatalf("object %s: recorded history rejected by abstract model at event %d: %s\n%s",
				id, idx, reason, proj)
		}
	}
	specs := atomicity.Specs{}
	for id, sp := range objSpecs {
		specs[id] = sp
	}
	rng := rand.New(rand.NewSource(99))
	da, viol, err := atomicity.DynamicAtomicSampled(h, specs, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !da {
		t.Fatalf("recorded history not dynamic atomic: %v\n%s", viol, h)
	}

	// The group-committed log must replay: restart redoes each object's
	// records in LSN order, so batch sequencing must have preserved
	// per-object execution order even across transactions. The restarted
	// state must equal the live committed state (no transactions are
	// in-flight, so there are no losers to undo).
	var logged []history.ObjectID
	for i, id := range ids {
		if i%2 == 0 { // intentions objects do not log
			logged = append(logged, id)
		}
	}
	restarted, _, err := recovery.RestartAllWithConfig(logged,
		func(history.ObjectID) adt.Machine { return ba.Machine() }, reopenWAL(t, e.WAL()), nil, recovery.RestartConfig{})
	if err != nil {
		t.Fatalf("restart from group-committed log: %v", err)
	}
	for _, id := range logged {
		store, _ := e.Object(id)
		if got, want := restarted[id].CommittedValue().Encode(), store.CommittedValue().Encode(); got != want {
			t.Fatalf("restart %s: state %s, live state %s", id, got, want)
		}
	}
}

// TestMergedHistoryMatchesShardBuffers: the engine's history contains
// every recorded event exactly once, in program order, and is
// well-formed.
func TestMergedHistoryMatchesShardBuffers(t *testing.T) {
	ba := adt.DefaultBankAccount()
	e := NewEngine(Options{RecordHistory: true})
	objs := []history.ObjectID{"p", "q", "r", "s", "tt", "u"}
	for _, id := range objs {
		e.MustRegister(id, ba, ba.NRBC(), UndoLogRecovery)
	}
	tx := e.Begin()
	for _, id := range objs {
		if _, err := tx.Invoke(id, adt.Deposit(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	h := e.History()
	// 2 events per op + 1 commit event per object.
	if want := 3 * len(objs); len(h) != want {
		t.Fatalf("recorded history has %d events, want %d\n%s", len(h), want, h)
	}
	// The transaction's operations appear in program (invoke) order.
	ops := history.Opseq(h)
	if len(ops) != len(objs) {
		t.Fatalf("opseq length %d, want %d", len(ops), len(objs))
	}
	if err := history.WellFormed(h); err != nil {
		t.Fatal(err)
	}
}
