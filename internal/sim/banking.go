package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/txn"
)

// BankingConfig parameterizes the hot-spot banking workload: transfers,
// deposits, withdrawals, and balance checks over a small set of accounts.
// Fewer accounts means more contention — the paper's "hot spot".
type BankingConfig struct {
	// Accounts is the number of bank-account objects.
	Accounts int
	// Workers is the number of concurrent client goroutines.
	Workers int
	// TxnsPerWorker is the number of transactions each worker runs.
	TxnsPerWorker int
	// OpsPerTxn is the number of operations per transaction.
	OpsPerTxn int
	// DepositPct and WithdrawPct set the operation mix (percent); the
	// remainder are balance reads.
	DepositPct  int
	WithdrawPct int
	// InitialBalance seeds every account before measurement.
	InitialBalance int
	// AbortPct aborts the transaction voluntarily after its operations
	// (exercising recovery cost).
	AbortPct int
	// ThinkIters adds deterministic busy work after each operation while
	// the transaction holds its locks, lengthening lock hold times so that
	// contention is observable on fast machines. Zero means no think time.
	ThinkIters int
	// Seed makes the workload deterministic in structure.
	Seed int64
	// Record enables history recording (for verification runs; slows the
	// engine).
	Record bool
}

// spinSink defeats dead-code elimination of the think-time loop. Workers
// on every goroutine fold into it, so the add must be atomic.
var spinSink atomic.Uint64

// think burns ~n loop iterations of CPU, yielding to the scheduler every
// few hundred iterations so that lock-hold windows overlap even at
// GOMAXPROCS=1 — without the yields, a worker on a single P runs whole
// transactions between preemption points and contention is never observed.
func think(n int) {
	var acc uint64 = 1469598103934665603
	for i := 0; i < n; i++ {
		acc = (acc ^ uint64(i)) * 1099511628211
		if i&255 == 255 {
			runtime.Gosched()
		}
	}
	spinSink.Add(acc)
}

// DefaultBankingConfig is the balanced mix on a 4-account hot spot.
func DefaultBankingConfig() BankingConfig {
	return BankingConfig{
		Accounts:       4,
		Workers:        8,
		TxnsPerWorker:  200,
		OpsPerTxn:      4,
		DepositPct:     30,
		WithdrawPct:    50,
		InitialBalance: 1_000_000,
		ThinkIters:     2000,
		Seed:           1,
	}
}

func acctID(i int) history.ObjectID {
	return history.ObjectID(fmt.Sprintf("acct%02d", i))
}

// RunBanking executes the banking workload under the scheduler and returns
// the metrics (plus the engine, for verification in tests).
func RunBanking(s Scheduler, cfg BankingConfig) (Result, *txn.Engine) {
	ba := adt.BankAccount{
		InitialBalance: cfg.InitialBalance,
		MaxBalance:     12,
		Amounts:        []int{1, 2, 3},
	}
	rel := bankRelation(s, adt.DefaultBankAccount())
	e := txn.NewEngine(txn.Options{RecordHistory: cfg.Record})
	for i := 0; i < cfg.Accounts; i++ {
		e.MustRegister(acctID(i), ba, rel, s.Kind())
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			for i := 0; i < cfg.TxnsPerWorker; i++ {
				tx := e.Begin()
				failed := false
				for op := 0; op < cfg.OpsPerTxn; op++ {
					obj := acctID(rng.Intn(cfg.Accounts))
					amount := 1 + rng.Intn(3)
					var err error
					switch pick := rng.Intn(100); {
					case pick < cfg.DepositPct:
						_, err = tx.Invoke(obj, adt.Deposit(amount))
					case pick < cfg.DepositPct+cfg.WithdrawPct:
						_, err = tx.Invoke(obj, adt.Withdraw(amount))
					default:
						_, err = tx.Invoke(obj, adt.Balance())
					}
					if err != nil {
						// Deadlock victims are auto-aborted; anything else
						// is unexpected for this workload but still ends
						// the transaction.
						if !errors.Is(err, txn.ErrAborted) {
							_ = tx.Abort()
						}
						failed = true
						break
					}
					if cfg.ThinkIters > 0 {
						think(cfg.ThinkIters)
					}
				}
				if failed {
					continue
				}
				if cfg.AbortPct > 0 && rng.Intn(100) < cfg.AbortPct {
					_ = tx.Abort()
					continue
				}
				_ = tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	return collect(s, "banking", e, time.Since(start)), e
}
