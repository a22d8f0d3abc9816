package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/adt"
	"repro/internal/history"
	"repro/internal/recovery"
	"repro/internal/txn"
)

// PoolConfig parameterizes the resource-allocation workload over the
// partial, nondeterministic pool type: transactions allocate a resource,
// hold it for a few operations elsewhere, and release it. Under
// update-in-place the allocator sees in-flight allocations and hands
// concurrent transactions different resources; under deferred update every
// transaction computes its allocation against the committed pool and
// collides on the same resource — the Section 8.2.2 divergence, made
// operational.
type PoolConfig struct {
	// Resources is the pool size.
	Resources int
	// Workers is the number of concurrent client goroutines.
	Workers int
	// TxnsPerWorker is the number of transactions each worker attempts.
	TxnsPerWorker int
	// ThinkOps is the number of scratch operations performed while holding
	// the resource (lengthens the hold).
	ThinkOps int
	// ThinkIters adds busy work between alloc and release so the
	// allocation hold window dominates the release window; see
	// TestPoolDivergence.
	ThinkIters int
	// Seed makes the workload deterministic in structure.
	Seed int64
	// Record enables history recording.
	Record bool
}

// DefaultPoolConfig is 3 resources under 6 workers.
func DefaultPoolConfig() PoolConfig {
	return PoolConfig{
		Resources:     3,
		Workers:       6,
		TxnsPerWorker: 150,
		ThinkOps:      2,
		ThinkIters:    2000,
		Seed:          1,
	}
}

const poolObj = history.ObjectID("pool")

func scratchID(i int) history.ObjectID {
	return history.ObjectID(fmt.Sprintf("scratch%02d", i))
}

// RunPool executes the allocation workload under the scheduler.
func RunPool(s Scheduler, cfg PoolConfig) (Result, *txn.Engine) {
	resources := make([]int, cfg.Resources)
	for i := range resources {
		resources[i] = i + 1
	}
	pool := adt.ResourcePool{Resources: resources}
	ba := adt.BankAccount{InitialBalance: 1000, MaxBalance: 12, Amounts: []int{1, 2, 3}}
	e := txn.NewEngine(txn.Options{RecordHistory: cfg.Record})
	e.MustRegister(poolObj, pool, poolRelation(s, pool), s.Kind())
	for w := 0; w < cfg.Workers; w++ {
		e.MustRegister(scratchID(w), ba, bankRelation(s, adt.DefaultBankAccount()), s.Kind())
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*104729))
			for i := 0; i < cfg.TxnsPerWorker; i++ {
				tx := e.Begin()
				res, err := tx.Invoke(poolObj, adt.Alloc())
				if err != nil {
					if errors.Is(err, adt.ErrNotEnabled) {
						// Pool exhausted: give up this attempt.
						_ = tx.Abort()
						continue
					}
					if !errors.Is(err, txn.ErrAborted) {
						_ = tx.Abort()
					}
					continue
				}
				if cfg.ThinkIters > 0 {
					think(cfg.ThinkIters)
				}
				ok := true
				for j := 0; j < cfg.ThinkOps; j++ {
					if _, err := tx.Invoke(scratchID(w), adt.Deposit(1+rng.Intn(2))); err != nil {
						if !errors.Is(err, txn.ErrAborted) {
							_ = tx.Abort()
						}
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				r := mustAtoi(string(res))
				if _, err := tx.Invoke(poolObj, adt.Release(r)); err != nil {
					if !errors.Is(err, txn.ErrAborted) {
						_ = tx.Abort()
					}
					continue
				}
				_ = tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	return collect(s, "pool", e, time.Since(start)), e
}

func mustAtoi(s string) int {
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		panic(fmt.Sprintf("sim: malformed resource id %q", s))
	}
	return n
}

// RecoveryCostConfig parameterizes the abort-heavy workload measuring the
// asymmetric costs of the two recovery methods: update-in-place pays undo
// work on abort and nothing at commit; deferred update pays intentions
// application (and workspace replay) at commit and nothing on abort.
type RecoveryCostConfig struct {
	Workers       int
	TxnsPerWorker int
	OpsPerTxn     int
	AbortPct      int
	Seed          int64
}

// DefaultRecoveryCostConfig aborts half the transactions.
func DefaultRecoveryCostConfig() RecoveryCostConfig {
	return RecoveryCostConfig{Workers: 4, TxnsPerWorker: 300, OpsPerTxn: 6, AbortPct: 50, Seed: 1}
}

// RecoveryCostResult extends Result with the store-level work counters.
type RecoveryCostResult struct {
	Result
	Undos         int64
	CommitApplies int64
	Replays       int64
	// WALRecords counts the records the run appended to the engine's log
	// (which, in memory, retains none of them).
	WALRecords int
}

// RunRecoveryCost runs a single-account workload with voluntary aborts and
// reports the recovery work performed.
func RunRecoveryCost(s Scheduler, cfg RecoveryCostConfig) RecoveryCostResult {
	bcfg := BankingConfig{
		Accounts:       1,
		Workers:        cfg.Workers,
		TxnsPerWorker:  cfg.TxnsPerWorker,
		OpsPerTxn:      cfg.OpsPerTxn,
		DepositPct:     60,
		WithdrawPct:    40,
		InitialBalance: 1_000_000,
		AbortPct:       cfg.AbortPct,
		Seed:           cfg.Seed,
	}
	res, e := RunBanking(s, bcfg)
	out := RecoveryCostResult{Result: res, WALRecords: int(e.WAL().FlushedRecords())}
	if store, ok := e.Object(acctID(0)); ok {
		switch st := store.(type) {
		case *recovery.UndoLog:
			stats := st.Stats()
			out.Undos = stats.Undos
			out.CommitApplies = stats.CommitApplies
			out.Replays = stats.Replays
		case *recovery.Intentions:
			stats := st.Stats()
			out.Undos = stats.Undos
			out.CommitApplies = stats.CommitApplies
			out.Replays = stats.Replays
		}
	}
	return out
}
