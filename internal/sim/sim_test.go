package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/commute"
	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/txn"
)

// waitUntilBlocked spins until the engine records at least one block event
// (i.e. some operation is genuinely waiting), failing the test after a
// generous timeout.
func waitUntilBlocked(t *testing.T, e *txn.Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics.BlockEvents.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for an operation to block")
		}
		runtime.Gosched()
	}
}

func smallBanking() BankingConfig {
	return BankingConfig{
		Accounts:       2,
		Workers:        4,
		TxnsPerWorker:  25,
		OpsPerTxn:      3,
		DepositPct:     30,
		WithdrawPct:    50,
		InitialBalance: 1000,
		Seed:           42,
		Record:         true,
	}
}

// verifiedSchedulers runs every scheduler pairing on a small recorded
// banking workload and checks the recorded history is well-formed and
// dynamic atomic (sampled).
func TestBankingAllSchedulersCorrect(t *testing.T) {
	wide := adt.BankAccount{InitialBalance: smallBanking().InitialBalance, MaxBalance: 1 << 20, Amounts: []int{1, 2, 3}}
	for _, s := range Schedulers {
		res, e := RunBanking(s, smallBanking())
		if res.Commits == 0 {
			t.Fatalf("%s: no commits", s)
		}
		h := e.History()
		if err := history.WellFormed(h); err != nil {
			t.Fatalf("%s: malformed history: %v", s, err)
		}
		specs := atomicity.Specs{}
		for _, obj := range h.Objects() {
			specs[obj] = wide.Spec()
		}
		rng := rand.New(rand.NewSource(7))
		da, viol, err := atomicity.DynamicAtomicSampled(h, specs, 10, rng)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !da {
			t.Fatalf("%s: history not dynamic atomic: %v", s, viol)
		}
	}
}

// TestConservationOfMoney: across all schedulers, the final committed
// balance equals the initial balance plus committed deposits minus
// committed successful withdrawals. The engine history gives the committed
// operation totals.
func TestConservationOfMoney(t *testing.T) {
	for _, s := range []Scheduler{UIPNRBC, DUNFC, UIPRW} {
		cfg := smallBanking()
		cfg.Accounts = 1
		cfg.AbortPct = 30
		res, e := RunBanking(s, cfg)
		_ = res
		h := e.History().Permanent()
		delta := 0
		for _, op := range history.Opseq(h) {
			switch {
			case op.Inv.Name == "deposit":
				delta += atoiOrZero(op.Inv.Args)
			case op.Inv.Name == "withdraw" && op.Res == "ok":
				delta -= atoiOrZero(op.Inv.Args)
			}
		}
		store, _ := e.Object(acctID(0))
		want := cfg.InitialBalance + delta
		if got := store.CommittedValue().Encode(); got != itoa(want) {
			t.Fatalf("%s: committed balance = %s, want %d", s, got, want)
		}
	}
}

func atoiOrZero(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// TestTradeoffWithdrawHeavy asserts the paper's directional claim on a
// withdraw-heavy hot spot: UIP/NRBC permits concurrent successful
// withdrawals that DU/NFC must serialize, so UIP/NRBC blocks fewer
// operations. Read/write locking blocks at least as much as either.
func TestTradeoffWithdrawHeavy(t *testing.T) {
	cfg := BankingConfig{
		Accounts:       1,
		Workers:        8,
		TxnsPerWorker:  60,
		OpsPerTxn:      4,
		DepositPct:     0,
		WithdrawPct:    100,
		InitialBalance: 1 << 20,
		ThinkIters:     1500,
		Seed:           11,
	}
	uip, _ := RunBanking(UIPNRBC, cfg)
	du, _ := RunBanking(DUNFC, cfg)
	rw, _ := RunBanking(UIPRW, cfg)
	if uip.Blocked != 0 {
		t.Errorf("pure successful withdrawals never conflict under NRBC; blocked = %d", uip.Blocked)
	}
	if du.Blocked == 0 {
		t.Error("withdraw-heavy: DU/NFC must serialize successful withdrawals")
	}
	if rw.Blocked == 0 {
		t.Error("withdraw-heavy: RW locking must serialize withdrawals")
	}
}

// TestTradeoffDepositThenWithdraw asserts the mirror claim on a
// deposit-heavy mix: under UIP/NRBC every requested withdrawal conflicts
// with the (abundant) held deposits, while under DU/NFC withdrawals
// conflict only with the (rare) held withdrawals — so DU/NFC blocks
// substantially less. On a 50/50 mix the two conflict masses are equal
// (wok-vs-dep under UIP, wok-vs-wok under DU); the 80/20 mix isolates the
// asymmetry.
func TestTradeoffDepositThenWithdraw(t *testing.T) {
	cfg := BankingConfig{
		Accounts:       1,
		Workers:        8,
		TxnsPerWorker:  60,
		OpsPerTxn:      4,
		DepositPct:     80,
		WithdrawPct:    20,
		InitialBalance: 1 << 20,
		ThinkIters:     1500,
		Seed:           13,
	}
	// The deterministic form of the claim: exact conflict mass over the
	// mix distribution.
	ba := adt.DefaultBankAccount()
	dist := BankingOpDist(cfg.DepositPct, cfg.WithdrawPct, 1<<20)
	uipMass := ConflictMass(ba.NRBC(), dist)
	duMass := ConflictMass(ba.NFC(), dist)
	if duMass >= uipMass {
		t.Fatalf("deposit-heavy mix: NFC mass %.4f should be below NRBC mass %.4f", duMass, uipMass)
	}
	if uipMass < 3*duMass {
		t.Errorf("expected a wide gap on the 80/20 mix: NRBC=%.4f NFC=%.4f", uipMass, duMass)
	}
	// Dynamic smoke: both pairings complete; measured blocking is reported
	// (machine-dependent overlap makes strict per-run inequalities noisy).
	uip, _ := RunBanking(UIPNRBC, cfg)
	du, _ := RunBanking(DUNFC, cfg)
	t.Logf("engine run: UIP/NRBC blocked=%d, DU/NFC blocked=%d (expected shape: UIP higher on average)", uip.Blocked, du.Blocked)
	if uip.Commits+uip.Aborts != uip.Txns || du.Commits+du.Aborts != du.Txns {
		t.Error("transaction conservation violated")
	}
}

// TestConflictMassCrossover regenerates the trade-off curve
// deterministically: NRBC mass is below NFC mass on withdraw-heavy mixes,
// above it on deposit-heavy mixes, and the two cross as the mix shifts —
// the paper's incomparability as a workload sweep.
func TestConflictMassCrossover(t *testing.T) {
	ba := adt.DefaultBankAccount()
	mixes := [][2]int{{0, 100}, {20, 80}, {50, 50}, {80, 20}, {100, 0}}
	rows := ConflictMassTable([]commute.Relation{ba.NRBC(), ba.NFC(), ba.RW()}, mixes, 1<<20)
	// Withdraw-only: NRBC mass 0, NFC mass > 0.
	if rows[0].Masses[0] != 0 {
		t.Errorf("withdraw-only NRBC mass = %.4f, want 0", rows[0].Masses[0])
	}
	if rows[0].Masses[1] == 0 {
		t.Error("withdraw-only NFC mass should be positive")
	}
	// Deposit-only: both 0 (deposits commute both ways).
	if rows[4].Masses[0] != 0 || rows[4].Masses[1] != 0 {
		t.Errorf("deposit-only masses = %v, want 0", rows[4].Masses)
	}
	// 50/50: equal masses (wok-vs-dep one-way under NRBC equals
	// wok-vs-wok two-way under NFC at this mix).
	if diff := rows[2].Masses[0] - rows[2].Masses[1]; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("50/50 masses should coincide: %v", rows[2].Masses)
	}
	// Deposit-heavy: NRBC above NFC; withdraw-heavy: NFC above NRBC.
	if rows[3].Masses[0] <= rows[3].Masses[1] {
		t.Errorf("80/20: NRBC %.4f should exceed NFC %.4f", rows[3].Masses[0], rows[3].Masses[1])
	}
	if rows[1].Masses[1] <= rows[1].Masses[0] {
		t.Errorf("20/80: NFC %.4f should exceed NRBC %.4f", rows[1].Masses[1], rows[1].Masses[0])
	}
	// RW dominates both everywhere there are operations.
	for i, r := range rows {
		if r.Masses[2] < r.Masses[0] || r.Masses[2] < r.Masses[1] {
			t.Errorf("mix %d: RW mass %.4f must dominate", i, r.Masses[2])
		}
	}
	t.Logf("\n%s", RenderMassTable("conflict mass", []string{"NRBC", "NFC", "RW"}, rows))
}

// TestAblationSymmetricClosure: forcing symmetry on NRBC adds exactly the
// conflicts whose absence the paper highlights — a requested deposit
// against a held successful withdrawal — and a dynamic run under the
// closed relation still executes correctly (it is a superset of NRBC, so
// Theorem 9 applies a fortiori).
func TestAblationSymmetricClosure(t *testing.T) {
	ba := adt.DefaultBankAccount()
	plain := bankRelation(UIPNRBC, ba)
	sym := bankRelation(UIPSym, ba)
	if plain.Conflicts(adt.DepositOk(1), adt.WithdrawOk(2)) {
		t.Fatal("NRBC must not conflict deposit-after-withdrawal")
	}
	if !sym.Conflicts(adt.DepositOk(1), adt.WithdrawOk(2)) {
		t.Fatal("symmetric closure must add deposit-after-withdrawal")
	}
	for _, p := range ba.Spec().Alphabet() {
		for _, q := range ba.Spec().Alphabet() {
			if plain.Conflicts(p, q) && !sym.Conflicts(p, q) {
				t.Fatalf("closure lost pair (%s,%s)", p, q)
			}
		}
	}
	cfg := BankingConfig{
		Accounts: 1, Workers: 4, TxnsPerWorker: 20, OpsPerTxn: 3,
		DepositPct: 50, WithdrawPct: 50, InitialBalance: 1 << 20,
		ThinkIters: 500, Seed: 17,
	}
	r, _ := RunBanking(UIPSym, cfg)
	if r.Commits+r.Aborts != r.Txns {
		t.Errorf("sym run: %d txns but %d commits + %d aborts", r.Txns, r.Commits, r.Aborts)
	}
}

// TestAblationInvocationBased: invocation-based locking (locks ignore
// results) conflicts on a strict superset of the operation pairs that
// result-based locking does — the deterministic form of the paper's
// Section 8.2 observation that every withdrawal must conflict with
// deposits once locks ignore results. A dynamic run of both
// configurations double-checks they execute correctly.
func TestAblationInvocationBased(t *testing.T) {
	ba := adt.DefaultBankAccount()
	resultRel := bankRelation(DUNFC, ba)
	invRel := bankRelation(DUInv, ba)
	ops := ba.Spec().Alphabet()
	superset := false
	for _, p := range ops {
		for _, q := range ops {
			rc := resultRel.Conflicts(p, q)
			ic := invRel.Conflicts(p, q)
			if rc && !ic {
				t.Fatalf("lifted NFCI must contain NFC: (%s,%s) lost", p, q)
			}
			if ic && !rc {
				superset = true
			}
		}
	}
	if !superset {
		t.Fatal("invocation-based locking should add conflicts on the bank account")
	}
	// The canonical added conflict: a successful withdrawal against a
	// deposit.
	if !invRel.Conflicts(adt.WithdrawOk(2), adt.DepositOk(1)) {
		t.Error("withdraw-ok must conflict with deposit under invocation-based locking")
	}
	if resultRel.Conflicts(adt.WithdrawOk(2), adt.DepositOk(1)) {
		t.Error("withdraw-ok does not conflict with deposit under NFC")
	}
	// Smoke: both pairings execute a contended workload to completion.
	cfg := BankingConfig{
		Accounts: 1, Workers: 4, TxnsPerWorker: 20, OpsPerTxn: 3,
		DepositPct: 40, WithdrawPct: 40, InitialBalance: 1 << 20,
		ThinkIters: 500, Seed: 19,
	}
	for _, sch := range []Scheduler{DUNFC, DUInv} {
		r, _ := RunBanking(sch, cfg)
		if r.Commits+r.Aborts != r.Txns {
			t.Errorf("%s: %d txns but %d commits + %d aborts", sch, r.Txns, r.Commits, r.Aborts)
		}
	}
}

// TestPoolDivergence: under update-in-place the allocator sees in-flight
// allocations and hands concurrent transactions distinct resources; under
// deferred update both compute their allocation against the committed pool
// and collide. The two-transaction scenario is deterministic; the
// statistical run is reported for the experiment log.
func TestPoolDivergence(t *testing.T) {
	pool := adt.DefaultResourcePool()

	// UIP: second alloc proceeds immediately with a different resource.
	eU := txn.NewEngine(txn.Options{})
	eU.MustRegister("P", pool, commute.Materialize(pool.NRBC(), pool.Spec().Alphabet()), txn.UndoLogRecovery)
	t1, t2 := eU.Begin(), eU.Begin()
	r1, err := t1.Invoke("P", adt.Alloc())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := t2.Invoke("P", adt.Alloc())
	if err != nil {
		t.Fatalf("UIP: concurrent alloc must not block or fail: %v", err)
	}
	if r1 == r2 {
		t.Fatalf("UIP: allocations must differ, both got %s", r1)
	}
	if eU.Metrics.Blocked.Load() != 0 {
		t.Error("UIP: no alloc should have blocked")
	}

	// DU: the second alloc computes the same resource from the committed
	// pool and must wait for the first to commit.
	eD := txn.NewEngine(txn.Options{})
	eD.MustRegister("P", pool, commute.Materialize(pool.NFC(), pool.Spec().Alphabet()), txn.IntentionsRecovery)
	d1, d2 := eD.Begin(), eD.Begin()
	if _, err := d1.Invoke("P", adt.Alloc()); err != nil {
		t.Fatal(err)
	}
	done := make(chan spec.Response, 1)
	go func() {
		r, err := d2.Invoke("P", adt.Alloc())
		if err != nil {
			t.Errorf("DU: alloc after commit: %v", err)
		}
		done <- r
	}()
	// Wait until d2 has genuinely blocked (metric-synchronized, no sleep
	// guessing), then release it by committing d1.
	waitUntilBlocked(t, eD)
	select {
	case r := <-done:
		t.Fatalf("DU: second alloc should block, got %s", r)
	default:
	}
	if err := d1.Commit(); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r != "2" {
		t.Fatalf("DU: after commit the second alloc gets the next resource, got %s", r)
	}
	if eD.Metrics.Blocked.Load() == 0 {
		t.Error("DU: the second alloc must have blocked")
	}

	// Statistical run, reported for EXPERIMENTS.md.
	cfg := DefaultPoolConfig()
	cfg.TxnsPerWorker = 60
	uip, _ := RunPool(UIPNRBC, cfg)
	du, _ := RunPool(DUNFC, cfg)
	if uip.Commits == 0 || du.Commits == 0 {
		t.Fatalf("pool runs must commit: %d, %d", uip.Commits, du.Commits)
	}
	t.Logf("pool run: UIP/NRBC blocked=%d, DU/NFC blocked=%d", uip.Blocked, du.Blocked)
}

// TestPoolCorrectness verifies a recorded pool run end to end.
func TestPoolCorrectness(t *testing.T) {
	cfg := PoolConfig{Resources: 2, Workers: 3, TxnsPerWorker: 15, ThinkOps: 1, Seed: 5, Record: true}
	for _, s := range []Scheduler{UIPNRBC, DUNFC} {
		_, e := RunPool(s, cfg)
		h := e.History()
		if err := history.WellFormed(h); err != nil {
			t.Fatalf("%s: malformed history: %v", s, err)
		}
		// All committed: pool must be full again.
		store, _ := e.Object(poolObj)
		if got := store.CommittedValue().Encode(); got != "free{1,2}" {
			t.Fatalf("%s: final pool = %s, want free{1,2}", s, got)
		}
	}
}

// TestRecoveryCostProfile: undo-log pays undo work on aborts (and writes
// WAL records); intentions pays commit-time application and replay work
// but performs no undos.
func TestRecoveryCostProfile(t *testing.T) {
	cfg := DefaultRecoveryCostConfig()
	cfg.TxnsPerWorker = 100
	uip := RunRecoveryCost(UIPNRBC, cfg)
	du := RunRecoveryCost(DUNFC, cfg)
	if uip.Undos == 0 {
		t.Error("undo-log run with aborts must perform undos")
	}
	if uip.WALRecords == 0 {
		t.Error("undo-log run must write WAL records")
	}
	if du.Undos != 0 {
		t.Errorf("intentions run must not undo, did %d", du.Undos)
	}
	if du.CommitApplies == 0 {
		t.Error("intentions run must apply intents at commit")
	}
	if uip.CommitApplies != 0 {
		t.Errorf("undo-log commit is free, saw %d applies", uip.CommitApplies)
	}
}

// TestSchedulerStrings pins the display names used in reports.
func TestSchedulerStrings(t *testing.T) {
	want := map[Scheduler]string{
		UIPNRBC: "UIP/NRBC", DUNFC: "DU/NFC", UIPRW: "UIP/RW", DURW: "DU/RW",
		UIPInv: "UIP/invocation", DUInv: "DU/invocation", UIPSym: "UIP/sym(NRBC)",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if UIPNRBC.Kind() != txn.UndoLogRecovery || DUNFC.Kind() != txn.IntentionsRecovery {
		t.Error("Kind mapping wrong")
	}
}

func TestRenderTable(t *testing.T) {
	r, _ := RunBanking(UIPNRBC, BankingConfig{
		Accounts: 1, Workers: 2, TxnsPerWorker: 5, OpsPerTxn: 2,
		DepositPct: 50, WithdrawPct: 30, InitialBalance: 100, Seed: 3,
	})
	out := RenderTable("demo", []Result{r})
	if len(out) < 40 {
		t.Errorf("table too short: %q", out)
	}
}
