package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/adt"
	"repro/internal/commute"
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/txn"
	"repro/internal/wal"
)

// clients is the closed loop's width: the engine is an embedded library
// whose callers wait for Commit to return, and the box has 2 vCPUs, so two
// client goroutines each submit their next transaction only after the
// previous one was acknowledged.
const clients = 2

// initialBalance is large enough that no scripted withdrawal is ever
// refused: every operation of every workload succeeds, and the oracle is a
// plain sum of acknowledged deltas.
const initialBalance = 1_000_000

// segmentBytes is the WAL rotation threshold of every durable workload.
// The engine default (4 MiB) would keep a whole round in one segment, so
// checkpoint truncation would have nothing to unlink; 64 KiB gives a round
// about ten segments, two per checkpoint interval. It is the same on every
// workload and every commit compared.
const segmentBytes = 64 << 10

// account is the one object type of the suite.
var account = adt.BankAccount{InitialBalance: initialBalance, MaxBalance: 1 << 20, Amounts: []int{1, 2, 3}}

// Invocation codes of a scripted operation. The invocation values are built
// once so the timed loop allocates nothing of its own.
const (
	invDeposit  = 0 // +amount-1: deposit(1..3)
	invWithdraw = 3 // +amount-1: withdraw(1..3)
	invBalance  = 6
)

var invocations = [...]spec.Invocation{
	adt.Deposit(1), adt.Deposit(2), adt.Deposit(3),
	adt.Withdraw(1), adt.Withdraw(2), adt.Withdraw(3),
	adt.Balance(),
}

// delta is the balance change of invocation code inv when it succeeds.
func delta(inv uint8) int64 {
	switch {
	case inv < invWithdraw:
		return int64(inv-invDeposit) + 1
	case inv < invBalance:
		return -(int64(inv-invWithdraw) + 1)
	}
	return 0
}

// op is one scripted operation: an account index and an invocation code.
type op struct {
	acct uint16
	inv  uint8
}

// shape is what a workload's scripts look like. Two workloads with the same
// shape and seed run byte-identical scripts; they differ only in how the
// engine is configured.
type shape struct {
	accounts  int
	opsPerTxn int
	// think is the yielding spin after each operation, run while the
	// transaction holds its locks (0 = none).
	think int
	// conserves says every transaction moves money between accounts, so
	// the total over all accounts never changes.
	conserves bool
	// gen fills one transaction's operations.
	gen func(rng *rand.Rand, accounts int, out []op)
	// txns is the default number of scripted transactions per client per
	// round. Rounds are short — a fifth to half a second on the 2-vCPU box
	// — so that a run has many of them and some fall between the host's
	// disturbances.
	txns int
}

// hot is the paper's hot spot: 4 accounts, 4 operations per transaction
// (30 % deposit, 50 % withdraw, 20 % balance, amounts 1-3) and lock-holding
// think time, so lock-hold overlap decides throughput.
var hot = shape{accounts: 4, opsPerTxn: 4, think: 2000, txns: 2000, gen: func(rng *rand.Rand, accounts int, out []op) {
	for i := range out {
		o := op{acct: uint16(rng.Intn(accounts))}
		amt := uint8(rng.Intn(3))
		switch pick := rng.Intn(100); {
		case pick < 30:
			o.inv = invDeposit + amt
		case pick < 80:
			o.inv = invWithdraw + amt
		default:
			o.inv = invBalance
		}
		out[i] = o
	}
}}

// wide is contention-free: two-account transfers drawn uniformly from 512
// accounts, no think time, so nothing blocks and the log does the work.
var wide = shape{accounts: 512, opsPerTxn: 2, conserves: true, txns: 1500, gen: genTransfer}

func genTransfer(rng *rand.Rand, accounts int, out []op) {
	src := rng.Intn(accounts)
	dst := rng.Intn(accounts - 1)
	if dst >= src {
		dst++
	}
	amt := uint8(rng.Intn(3))
	out[0] = op{acct: uint16(src), inv: invWithdraw + amt}
	out[1] = op{acct: uint16(dst), inv: invDeposit + amt}
}

// script generates one client's transactions for a round. The generator is
// seeded from (seed, client) only, so every round of a run and every
// workload of the same shape replays the same inputs.
func (s shape) script(seed int64, client, txns int) []op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*15_485_863))
	out := make([]op, txns*s.opsPerTxn)
	for i := 0; i < txns; i++ {
		s.gen(rng, s.accounts, out[i*s.opsPerTxn:(i+1)*s.opsPerTxn])
	}
	return out
}

// inflight returns the transfer each client leaves uncommitted at the end
// of a round. The transfers touch pairwise distinct accounts, so both can
// be open at once without blocking each other.
func (s shape) inflight(seed int64) [clients][2]op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 7919))
	perm := rng.Perm(s.accounts)
	var out [clients][2]op
	for c := range out {
		amt := uint8(rng.Intn(3))
		out[c] = [2]op{
			{acct: uint16(perm[2*c]), inv: invWithdraw + amt},
			{acct: uint16(perm[2*c+1]), inv: invDeposit + amt},
		}
	}
	return out
}

// workload is one named set of inputs plus the engine configuration it runs
// against.
type workload struct {
	name string
	// why is the one-line rationale BENCHMARK.json carries.
	why string
	shape
	// durable selects txn.NewDurableEngine (segmented WAL, async flusher)
	// and the crash + restart phase; otherwise txn.NewEngine in memory.
	durable    bool
	discipline string
	kind       txn.RecoveryKind
	relation   commute.Relation
	// checkpoints is how many times per round the driver's checkpointer is
	// signalled (0 = never): each time the committed count crosses a
	// multiple of total/(checkpoints+1).
	checkpoints int
}

var workloads = []workload{
	{
		name: "hot-uip", shape: hot, kind: txn.UndoLogRecovery, relation: account.NRBC(),
		why: "4 hot accounts, update-in-place + NRBC in memory: locking, commute and the undo store do the work; wal backend and checkpoint do nothing",
	},
	{
		name: "hot-du", shape: hot, kind: txn.IntentionsRecovery, relation: account.NFC(),
		why: "same scripts as hot-uip under deferred update + NFC: the other relation and the intentions store, no log records; guards the incomparability result",
	},
	{
		name: "wide-undo", shape: wide, durable: true, kind: txn.UndoLogRecovery, relation: account.NRBC(),
		why: "512 accounts, uncontended durable transfers under undo logging, then crash + restart: wal stage/encode/fsync and recovery replay do the work",
	},
	{
		name: "wide-redo", shape: wide, durable: true, discipline: wal.DisciplineRedo, kind: txn.UndoLogRecovery, relation: account.NRBC(),
		why: "same scripts as wide-undo under REDO-only logging: fewer payload-free records, dependency sets at commit, winners-only replay at restart",
	},
	{
		name: "wide-ckpt", shape: wide, durable: true, kind: txn.UndoLogRecovery, relation: account.NRBC(), checkpoints: 5,
		why: "wide-undo plus 5 fuzzy checkpoints with truncation per round: checkpoint capture/save, segment unlink and checkpoint-seeded restart run only here",
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// accountIDs names the accounts of a workload.
func accountIDs(n int) []history.ObjectID {
	ids := make([]history.ObjectID, n)
	for i := range ids {
		ids[i] = history.ObjectID(fmt.Sprintf("acct%03d", i))
	}
	return ids
}

// open builds the workload's engine at the engine's defaults (sharded
// pipeline, copy-on-write registry, early tracked release, zero flusher
// dwell, one write+fsync per flusher round) and registers every account.
// dir is used by durable workloads only.
func (w *workload) open(opts txn.Options, dir string, ids []history.ObjectID) (*txn.Engine, error) {
	opts.LogDiscipline = w.discipline
	var e *txn.Engine
	if w.durable {
		var err error
		e, err = txn.NewDurableEngine(opts, txn.DurabilityOptions{Dir: dir, SegmentBytes: segmentBytes})
		if err != nil {
			return nil, err
		}
	} else {
		e = txn.NewEngine(opts)
	}
	for _, id := range ids {
		if err := e.Register(id, account, w.relation, w.kind); err != nil {
			_ = e.Close() // the registration error is the one to report
			return nil, err
		}
	}
	return e, nil
}

// setupOnce times one set-up — engine construction plus registration of
// every account — and throws the engine away.
func (w *workload) setupOnce(dir string, ids []history.ObjectID) (time.Duration, error) {
	t0 := time.Now()
	e, err := w.open(txn.Options{}, dir, ids)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if err := e.Close(); err != nil {
		return 0, err
	}
	return d, os.RemoveAll(dir)
}
