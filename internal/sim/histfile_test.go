package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/histfile"
	"repro/internal/history"
	"repro/internal/txn"
)

// TestScalingHistfileRoundTrip records a concurrent transfer workload on
// one engine, renders its history through histfile, parses
// it back, and re-verifies the parsed history: no event lost, still
// well-formed, still dynamic atomic.
func TestScalingHistfileRoundTrip(t *testing.T) {
	const accounts, workers, txnsPerWorker = 6, 4, 5
	ba := adt.BankAccount{InitialBalance: 1000, MaxBalance: 1 << 20, Amounts: []int{1, 2, 3}}
	e := txn.NewEngine(txn.Options{RecordHistory: true})
	for i := 0; i < accounts; i++ {
		e.MustRegister(acctID(i), ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
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
				res, err := tx.Invoke(acctID(perm[0]), adt.Withdraw(amount))
				if err == nil && res == "ok" {
					runtime.Gosched()
					res, err = tx.Invoke(acctID(perm[1]), adt.Deposit(amount))
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
