package histfile_test

// The engine's recorded history, saved and re-checked through the
// same pipeline cmd/histcheck runs on trace files.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/core"
	"repro/internal/histfile"
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/txn"
)

func specsFor(h history.History, sp spec.Enumerable) atomicity.Specs {
	out := atomicity.Specs{}
	for _, obj := range h.Objects() {
		out[obj] = sp
	}
	return out
}

// TestShardedTraceHistcheckPipeline drives a small deterministic workload
// on an engine that stays inside the default bank-account window,
// saves the recorded history through histfile, and re-checks the parsed file
// with exactly the pipeline cmd/histcheck runs: well-formedness, full
// atomicity, full dynamic atomicity, and per-object acceptance by
// I(X, Spec, UIP, NRBC). Set SCALING_HIST_OUT to dump the file for a
// manual `histcheck -view uip` run.
func TestShardedTraceHistcheckPipeline(t *testing.T) {
	ba := adt.DefaultBankAccount() // initial balance 0, window 0..12
	e := txn.NewEngine(txn.Options{RecordHistory: true})
	objs := []history.ObjectID{"A", "B", "C"}
	for _, id := range objs {
		e.MustRegister(id, ba, ba.NRBC(), txn.UndoLogRecovery)
	}
	t1, t2 := e.Begin(), e.Begin()
	mustInvoke(t, t1, "A", adt.Deposit(5))
	mustInvoke(t, t2, "B", adt.Deposit(3))
	mustInvoke(t, t1, "A", adt.Withdraw(2))
	mustInvoke(t, t2, "C", adt.Deposit(2))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	t3 := e.Begin()
	mustInvoke(t, t3, "A", adt.Deposit(1))
	mustInvoke(t, t3, "B", adt.Balance())
	if err := t3.Abort(); err != nil {
		t.Fatal(err)
	}
	t4 := e.Begin()
	mustInvoke(t, t4, "C", adt.Withdraw(1))
	if err := t4.Commit(); err != nil {
		t.Fatal(err)
	}

	h := e.History()
	f := &histfile.File{Specs: specsFor(h, ba.Spec()), H: h}
	names := map[history.ObjectID]string{}
	for _, obj := range h.Objects() {
		names[obj] = "bank-account"
	}
	var buf bytes.Buffer
	if err := histfile.Render(&buf, f, names); err != nil {
		t.Fatal(err)
	}
	if path := os.Getenv("SCALING_HIST_OUT"); path != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
	parsed, err := histfile.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := history.WellFormed(parsed.H); err != nil {
		t.Fatalf("well-formed: %v", err)
	}
	atomic, err := atomicity.Atomic(parsed.H, parsed.Specs)
	if err != nil {
		t.Fatal(err)
	}
	if !atomic {
		t.Fatal("parsed trace not atomic")
	}
	da, viol, err := atomicity.DynamicAtomic(parsed.H, parsed.Specs)
	if err != nil {
		t.Fatal(err)
	}
	if !da {
		t.Fatalf("parsed trace not dynamic atomic: %v", viol)
	}
	for _, x := range parsed.H.Objects() {
		ty := parsed.Types[x]
		ok, idx, reason := core.Accepts(x, parsed.Specs[x], core.UIP, ty.NRBC(), parsed.H.ProjectObj(x))
		if !ok {
			t.Fatalf("I(%s,Spec,UIP,NRBC) rejects at %d: %s", x, idx, reason)
		}
	}
}

func mustInvoke(t *testing.T, tx *txn.Txn, obj history.ObjectID, inv spec.Invocation) {
	t.Helper()
	if _, err := tx.Invoke(obj, inv); err != nil {
		t.Fatal(err)
	}
}

// TestScalingHistfileRoundTrip records a concurrent transfer workload on
// one engine, renders its history through histfile, parses
// it back, and re-verifies the parsed history: no event lost, still
// well-formed, still dynamic atomic.
func TestScalingHistfileRoundTrip(t *testing.T) {
	const accounts, workers, txnsPerWorker = 6, 4, 5
	ba := adt.BankAccount{InitialBalance: 1000, MaxBalance: 1 << 20, Amounts: []int{1, 2, 3}}
	e := txn.NewEngine(txn.Options{RecordHistory: true})
	for i := 0; i < accounts; i++ {
		e.MustRegister(history.ObjectID(fmt.Sprintf("acct%02d", i)), ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
	}
	// Each worker moves 1..3 units from one account to another; a refused
	// withdrawal aborts, and a deadlock victim is aborted by the engine.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(3 + int64(w)*15485863))
			for i := 0; i < txnsPerWorker; i++ {
				tx := e.Begin()
				perm := rng.Perm(accounts)
				amount := 1 + rng.Intn(3)
				res, err := tx.Invoke(history.ObjectID(fmt.Sprintf("acct%02d", perm[0])), adt.Withdraw(amount))
				if err == nil && res == "ok" {
					runtime.Gosched()
					res, err = tx.Invoke(history.ObjectID(fmt.Sprintf("acct%02d", perm[1])), adt.Deposit(amount))
				}
				switch {
				case errors.Is(err, txn.ErrAborted):
				case err != nil || res != "ok":
					_ = tx.Abort()
				default:
					_ = tx.Commit()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	h := e.History()
	sp := ba.Spec()
	f := &histfile.File{Specs: atomicity.Specs{}, H: h}
	names := map[history.ObjectID]string{}
	for _, obj := range h.Objects() {
		f.Specs[obj] = sp
		names[obj] = "bank-account"
	}
	var buf bytes.Buffer
	if err := histfile.Render(&buf, f, names); err != nil {
		t.Fatal(err)
	}
	parsed, err := histfile.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.H) != len(h) {
		t.Fatalf("round trip lost events: %d vs %d", len(parsed.H), len(h))
	}
	if err := history.WellFormed(parsed.H); err != nil {
		t.Fatalf("parsed history malformed: %v", err)
	}
	// The atomicity check replays against the in-code wide specs: the file
	// format resolves "bank-account" to the default window (initial balance
	// 0), which cannot describe a workload seeded at 1000.
	specs := atomicity.Specs{}
	for _, obj := range parsed.H.Objects() {
		specs[obj] = sp
	}
	rng := rand.New(rand.NewSource(23))
	da, viol, err := atomicity.DynamicAtomicSampled(parsed.H, specs, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !da {
		t.Fatalf("parsed history not dynamic atomic: %v", viol)
	}
}
