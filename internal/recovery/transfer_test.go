package recovery_test

// The multi-object transfer workload, which the transfer crash sweeps
// drive, and its live tests: every transaction moves money between
// accounts, so a half-applied transfer shows as a changed total.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/history"
	"repro/internal/txn"
)

// transferConfig parameterizes the multi-object transfer workload: every
// transaction withdraws an amount from one account and deposits the same
// amount at another, so transaction atomicity is observable as money
// conservation — the sum of all balances never moves, and a half-applied
// transfer (one leg without the other) is immediately visible. This is the
// workload that stresses the cross-object commit barrier: a crash boundary
// can fall between the two legs' update records, between the per-object
// commit records, or between them and the transaction-level commit record,
// and restart must still recover whole transfers or none of one.
type transferConfig struct {
	// Accounts is the number of bank-account objects.
	Accounts int
	// Workers is the number of concurrent client goroutines.
	Workers int
	// TxnsPerWorker is the number of transfer transactions per worker.
	TxnsPerWorker int
	// MaxAmount bounds each transfer amount (drawn uniformly from
	// 1..MaxAmount).
	MaxAmount int
	// Participants is the number of accounts each transfer touches
	// (values below 2 mean the classic pair). With P participants a
	// transaction withdraws (P-1)×amount from one source and fans the
	// deposits out over P-1 distinct destinations — conservation is
	// unchanged, but the commit protocol now spans P objects, so crash
	// boundaries can fall between any two legs of a wider transaction.
	Participants int
	// InitialBalance seeds every account; the conserved total is
	// Accounts * InitialBalance.
	InitialBalance int
	// AbortPct aborts the transaction voluntarily after both legs,
	// exercising multi-object compensation under concurrency.
	AbortPct int
	// Seed makes the workload deterministic in structure.
	Seed int64
	// Record enables history recording (verification runs only).
	Record bool
}

// defaultTransferConfig is 6 hot accounts under 5 workers with a fifth of
// the transfers aborting voluntarily.
func defaultTransferConfig() transferConfig {
	return transferConfig{
		Accounts:       6,
		Workers:        5,
		TxnsPerWorker:  8,
		MaxAmount:      3,
		InitialBalance: 1000,
		AbortPct:       20,
		Seed:           1,
	}
}

// transferAccountID names the i-th transfer account.
func transferAccountID(i int) history.ObjectID {
	return history.ObjectID(fmt.Sprintf("xfer%02d", i))
}

// BankAccount returns the account type backing the workload — shared with
// the crash harness so the machine restarted from the durable log is
// exactly the machine that produced it.
func (cfg transferConfig) BankAccount() adt.BankAccount {
	amounts := make([]int, cfg.MaxAmount)
	for i := range amounts {
		amounts[i] = i + 1
	}
	return adt.BankAccount{InitialBalance: cfg.InitialBalance, MaxBalance: 1 << 20, Amounts: amounts}
}

// newTransferEngine builds an in-memory engine with the workload's accounts
// (see Register).
func newTransferEngine(cfg transferConfig) *txn.Engine {
	e := txn.NewEngine(txn.Options{RecordHistory: cfg.Record})
	cfg.Register(e)
	return e
}

// Register registers cfg.Accounts undo-log (UIP/NRBC) bank accounts on e.
func (cfg transferConfig) Register(e *txn.Engine) {
	ba := cfg.BankAccount()
	for i := 0; i < cfg.Accounts; i++ {
		e.MustRegister(transferAccountID(i), ba, adt.DefaultBankAccount().NRBC(), txn.UndoLogRecovery)
	}
}

// runTransfers drives the transfer workload against e until every worker
// has finished. Each transaction withdraws from a random source and, if
// the withdrawal succeeded, deposits the same total across P-1 distinct
// random destinations (P = cfg.Participants, default 2 — the classic
// pair); transactions whose withdrawal is refused (insufficient funds)
// abort, as do a cfg.AbortPct fraction of complete transfers —
// multi-object compensation under concurrency. Deadlock victims are
// auto-aborted by the engine. The scheduler yields between legs spread a
// transfer's records over group-commit batches, so crash boundaries
// genuinely fall inside transfers.
func runTransfers(e *txn.Engine, cfg transferConfig) {
	parts := cfg.Participants
	if parts < 2 {
		parts = 2
	}
	if parts > cfg.Accounts {
		parts = cfg.Accounts
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*15485863))
			for i := 0; i < cfg.TxnsPerWorker; i++ {
				tx := e.Begin()
				// src plus parts-1 distinct destinations, all different.
				perm := rng.Perm(cfg.Accounts)[:parts]
				src, dsts := perm[0], perm[1:]
				amount := 1 + rng.Intn(cfg.MaxAmount)
				res, err := tx.Invoke(transferAccountID(src), adt.Withdraw(amount*len(dsts)))
				if err != nil {
					if !errors.Is(err, txn.ErrAborted) {
						_ = tx.Abort()
					}
					continue
				}
				if res != "ok" {
					_ = tx.Abort()
					continue
				}
				failed := false
				for _, dst := range dsts {
					runtime.Gosched()
					res, err = tx.Invoke(transferAccountID(dst), adt.Deposit(amount))
					if err != nil {
						if !errors.Is(err, txn.ErrAborted) {
							_ = tx.Abort()
						}
						failed = true
						break
					}
					if res != "ok" {
						_ = tx.Abort()
						failed = true
						break
					}
				}
				if failed {
					continue
				}
				runtime.Gosched()
				if cfg.AbortPct > 0 && rng.Intn(100) < cfg.AbortPct {
					_ = tx.Abort()
					continue
				}
				_ = tx.Commit()
			}
		}(w)
	}
	wg.Wait()
}

// transferTotal sums the committed balances of the transfer accounts — the
// conserved quantity. Call it quiescently.
func transferTotal(e *txn.Engine, cfg transferConfig) (int, error) {
	total := 0
	for i := 0; i < cfg.Accounts; i++ {
		store, ok := e.Object(transferAccountID(i))
		if !ok {
			return 0, fmt.Errorf("transfer account %d not registered", i)
		}
		bal, err := strconv.Atoi(store.CommittedValue().Encode())
		if err != nil {
			return 0, fmt.Errorf("transfer account %d balance: %w", i, err)
		}
		total += bal
	}
	return total, nil
}

// TestTransferConservation: the live multi-object transfer workload
// conserves the total balance — every commit moves money, never creates or
// destroys it — and the recorded history passes the verification stack. The
// restart-side half of the story (conservation at every crash boundary) is
// the transfer crash sweep in transfer_crash_test.go.
func TestTransferConservation(t *testing.T) {
	cfg := defaultTransferConfig()
	cfg.TxnsPerWorker = 20
	cfg.Record = true
	e := newTransferEngine(cfg)
	runTransfers(e, cfg)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Metrics.Commits.Load() == 0 {
		t.Fatal("no transfer committed; the workload is not exercising the commit barrier")
	}
	total, err := transferTotal(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Accounts * cfg.InitialBalance; total != want {
		t.Fatalf("total balance = %d, want %d (a transfer was half-applied)", total, want)
	}
	h := e.History()
	if err := history.WellFormed(h); err != nil {
		t.Fatalf("recorded history malformed: %v", err)
	}
	sp := cfg.BankAccount().Spec()
	specs := atomicity.Specs{}
	for _, obj := range h.Objects() {
		specs[obj] = sp
	}
	rng := rand.New(rand.NewSource(5))
	da, viol, err := atomicity.DynamicAtomicSampled(h, specs, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !da {
		t.Fatalf("history not dynamic atomic: %v", viol)
	}
}

// TestTransferAbortsCompensate: with every complete transfer aborting
// voluntarily, the undo path restores both legs and the total still never
// moves — multi-object compensation under concurrency.
func TestTransferAbortsCompensate(t *testing.T) {
	cfg := defaultTransferConfig()
	cfg.TxnsPerWorker = 15
	cfg.AbortPct = 100
	e := newTransferEngine(cfg)
	runTransfers(e, cfg)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Metrics.Aborts.Load() == 0 {
		t.Fatal("no aborts; the workload is not exercising compensation")
	}
	total, err := transferTotal(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Accounts * cfg.InitialBalance; total != want {
		t.Fatalf("total balance = %d, want %d (an abort left half a transfer)", total, want)
	}
	for i := 0; i < cfg.Accounts; i++ {
		store, _ := e.Object(transferAccountID(i))
		if got := store.CommittedValue().Encode(); got != "1000" {
			t.Errorf("account %d = %s, want 1000 (all transfers aborted)", i, got)
		}
	}
}

// TestTransferMultiParticipantConservation: with Participants > 2 each
// transaction withdraws (P-1)×amount at one source and fans the deposits
// out over P-1 distinct destinations. Conservation must hold live across
// the wider commit sweep, with both voluntary aborts and deadlock victims
// compensating every leg.
func TestTransferMultiParticipantConservation(t *testing.T) {
	for _, parts := range []int{3, 4} {
		cfg := defaultTransferConfig()
		cfg.Participants = parts
		cfg.TxnsPerWorker = 20
		cfg.Record = true
		e := newTransferEngine(cfg)
		runTransfers(e, cfg)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e.Metrics.Commits.Load() == 0 {
			t.Fatalf("participants=%d: no transfer committed", parts)
		}
		total, err := transferTotal(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := cfg.Accounts * cfg.InitialBalance; total != want {
			t.Fatalf("participants=%d: total balance = %d, want %d (a fan-out transfer was half-applied)",
				parts, total, want)
		}
		if err := history.WellFormed(e.History()); err != nil {
			t.Fatalf("participants=%d: recorded history malformed: %v", parts, err)
		}
	}
}
