package repro

// One benchmark per experiment in DESIGN.md §3. Each bench regenerates a
// paper artifact (figure, table, counterexample, or trade-off series) and
// fails fast if the regenerated artifact loses the paper's shape, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.

import (
	"testing"

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/commute"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
)

func figureOps() []spec.Operation {
	return []spec.Operation{
		adt.DepositOk(2), adt.WithdrawOk(2), adt.WithdrawNo(2), adt.BalanceIs(2),
	}
}

// BenchmarkFig61ForwardCommutativity regenerates Figure 6.1 from the
// bank-account specification and checks it against the paper's table (E1).
func BenchmarkFig61ForwardCommutativity(b *testing.B) {
	ba := adt.DefaultBankAccount()
	want := commute.BuildTable("", ba.NFC(), figureOps())
	for i := 0; i < b.N; i++ {
		c := ba.Checker()
		got := commute.BuildTable("", c.NFCRelation(), figureOps())
		if !got.Equal(want) {
			b.Fatal("Figure 6.1 derivation diverged from the paper's table")
		}
	}
}

// BenchmarkFig62BackwardCommutativity regenerates Figure 6.2 (E2).
func BenchmarkFig62BackwardCommutativity(b *testing.B) {
	ba := adt.DefaultBankAccount()
	want := commute.BuildTable("", ba.NRBC(), figureOps())
	for i := 0; i < b.N; i++ {
		c := ba.Checker()
		got := commute.BuildTable("", c.NRBCRelation(), figureOps())
		if !got.Equal(want) {
			b.Fatal("Figure 6.2 derivation diverged from the paper's table")
		}
	}
}

// BenchmarkTableINonlocalEffects re-verifies the Table I analysis (E3):
// I rbc J, J not rbc I, (I,J) ∉ CI, state 5 ≲ state 4 only.
func BenchmarkTableINonlocalEffects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := commute.NewChecker(adt.TableISpec())
		ji := spec.Seq{adt.OpJR, adt.OpIQ}
		ij := spec.Seq{adt.OpIQ, adt.OpJR}
		ci, err := c.CI(adt.InvI, adt.InvJ)
		if err != nil {
			b.Fatal(err)
		}
		ok := c.RightCommutesBackward(adt.OpIQ, adt.OpJR) &&
			!c.RightCommutesBackward(adt.OpJR, adt.OpIQ) &&
			!ci && c.LooksLike(ji, ij) && !c.LooksLike(ij, ji)
		if !ok {
			b.Fatal("Table I analysis diverged from the paper")
		}
	}
}

// BenchmarkTheorem9UIP builds and verifies the Theorem 9 counterexample
// (E4): UIP with an NRBC-missing conflict relation accepts a
// non-dynamic-atomic history.
func BenchmarkTheorem9UIP(b *testing.B) {
	ba := adt.DefaultBankAccount()
	specs := atomicity.Specs{"BA": ba.Spec()}
	for i := 0; i < b.N; i++ {
		c := ba.Checker()
		v, found := c.RBCViolationWitness(adt.WithdrawOk(2), adt.DepositOk(2))
		if !found {
			b.Fatal("missing RBC violation witness")
		}
		ce := core.BuildUIPCounterexample("BA", v)
		accepted, _, _ := core.Accepts("BA", ba.Spec(), core.UIP, ba.NFC(), ce.H)
		da, _, err := atomicity.DynamicAtomic(ce.H, specs)
		if err != nil {
			b.Fatal(err)
		}
		if !accepted || da {
			b.Fatal("Theorem 9 counterexample lost its shape")
		}
	}
}

// BenchmarkTheorem10DU mirrors Theorem 10 (E5).
func BenchmarkTheorem10DU(b *testing.B) {
	ba := adt.DefaultBankAccount()
	specs := atomicity.Specs{"BA": ba.Spec()}
	for i := 0; i < b.N; i++ {
		c := ba.Checker()
		v, found := c.FCViolationWitness(adt.WithdrawOk(2), adt.WithdrawOk(2))
		if !found {
			b.Fatal("missing FC violation witness")
		}
		ce := core.BuildDUCounterexample("BA", v)
		accepted, _, _ := core.Accepts("BA", ba.Spec(), core.DU, ba.NRBC(), ce.H)
		da, _, err := atomicity.DynamicAtomic(ce.H, specs)
		if err != nil {
			b.Fatal(err)
		}
		if !accepted || da {
			b.Fatal("Theorem 10 counterexample lost its shape")
		}
	}
}

// BenchmarkRWLockingBothRecoveries verifies Section 8.1 across every
// registered type (E6): the read/write relation contains both NFC and NRBC.
func BenchmarkRWLockingBothRecoveries(b *testing.B) {
	types := []adt.Type{
		adt.DefaultBankAccount(), adt.DefaultIntSet(), adt.DefaultFIFOQueue(),
		adt.DefaultKVStore(), adt.DefaultRegister(), adt.DefaultResourcePool(),
	}
	for i := 0; i < b.N; i++ {
		for _, ty := range types {
			rw, nfc, nrbc := ty.RW(), ty.NFC(), ty.NRBC()
			for _, p := range ty.Spec().Alphabet() {
				for _, q := range ty.Spec().Alphabet() {
					if (nfc.Conflicts(p, q) || nrbc.Conflicts(p, q)) && !rw.Conflicts(p, q) {
						b.Fatalf("%s: RW misses (%s,%s)", ty.Name(), p, q)
					}
				}
			}
		}
	}
}

// BenchmarkInvocationTotalDeterministic verifies Lemmas 15–16 on the bank
// account (E7): FCI = RBCI = CI for total deterministic invocations.
func BenchmarkInvocationTotalDeterministic(b *testing.B) {
	ba := adt.DefaultBankAccount()
	invs := []spec.Invocation{adt.Deposit(1), adt.Withdraw(2), adt.Balance()}
	for i := 0; i < b.N; i++ {
		c := ba.Checker()
		for _, x := range invs {
			for _, y := range invs {
				ci, err := c.CI(x, y)
				if err != nil {
					b.Fatal(err)
				}
				if c.FCI(x, y) != ci || c.RBCI(x, y) != ci {
					b.Fatalf("FCI/RBCI/CI diverged on (%s,%s)", x, y)
				}
			}
		}
	}
}

// BenchmarkPartialInvocations re-verifies the Section 8.2.2.1 examples
// (E8): partial invocations split FCI and RBCI in both directions.
func BenchmarkPartialInvocations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ca := commute.NewChecker(adt.PartialSpecA())
		cb := commute.NewChecker(adt.PartialSpecB())
		if !ca.RBCI(adt.InvI, adt.InvJ) || ca.FCI(adt.InvI, adt.InvJ) {
			b.Fatal("spec A: want RBCI without FCI")
		}
		if !cb.FCI(adt.InvI, adt.InvJ) || cb.RBCI(adt.InvI, adt.InvJ) {
			b.Fatal("spec B: want FCI without RBCI")
		}
	}
}

// BenchmarkNondeterministicInvocations re-verifies the Section 8.2.2.2
// examples (E9).
func BenchmarkNondeterministicInvocations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cc := commute.NewChecker(adt.NondetSpecC())
		cd := commute.NewChecker(adt.NondetSpecD())
		if !cc.RBCI(adt.InvI, adt.InvJ) || cc.FCI(adt.InvI, adt.InvJ) {
			b.Fatal("spec C: want RBCI without FCI")
		}
		if !cd.FCI(adt.InvI, adt.InvJ) || cd.RBCI(adt.InvI, adt.InvJ) {
			b.Fatal("spec D: want FCI without RBCI")
		}
	}
}

// BenchmarkIncomparability computes the conflict-mass trade-off curve and
// checks its shape (E10): incomparable relations, crossover at 50/50.
func BenchmarkIncomparability(b *testing.B) {
	ba := adt.DefaultBankAccount()
	mixes := [][2]int{{0, 100}, {20, 80}, {50, 50}, {80, 20}, {100, 0}}
	for i := 0; i < b.N; i++ {
		rows := sim.ConflictMassTable(
			[]commute.Relation{ba.NRBC(), ba.NFC()}, mixes, 1<<20)
		if !(rows[0].Masses[0] < rows[0].Masses[1] && rows[3].Masses[0] > rows[3].Masses[1]) {
			b.Fatal("incomparability crossover lost")
		}
	}
}

func reportRun(b *testing.B, r sim.Result) {
	b.ReportMetric(float64(r.Blocked), "blocked/run")
	b.ReportMetric(r.BlockedPct(), "blocked%")
	b.ReportMetric(float64(r.Deadlocks), "deadlocks/run")
	b.ReportMetric(r.Throughput(), "txn/s")
}

// BenchmarkTradeoffBanking runs the banking engine under both optimal
// pairings on the three canonical mixes (E11b).
func BenchmarkTradeoffBanking(b *testing.B) {
	mixes := []struct {
		name     string
		dep, wdr int
	}{
		{"withdrawHeavy", 0, 100},
		{"balanced", 50, 50},
		{"depositHeavy", 90, 10},
	}
	for _, mix := range mixes {
		for _, s := range []sim.Scheduler{sim.UIPNRBC, sim.DUNFC, sim.UIPRW} {
			b.Run(mix.name+"/"+s.String(), func(b *testing.B) {
				cfg := sim.BankingConfig{
					Accounts: 2, Workers: 8, TxnsPerWorker: 50, OpsPerTxn: 4,
					DepositPct: mix.dep, WithdrawPct: mix.wdr,
					InitialBalance: 1 << 20, ThinkIters: 1000, Seed: 7,
				}
				var last sim.Result
				for i := 0; i < b.N; i++ {
					last, _ = sim.RunBanking(s, cfg)
				}
				reportRun(b, last)
			})
		}
	}
}

// BenchmarkTradeoffResourcePool runs the allocation workload (E12).
func BenchmarkTradeoffResourcePool(b *testing.B) {
	for _, s := range []sim.Scheduler{sim.UIPNRBC, sim.DUNFC} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := sim.DefaultPoolConfig()
			cfg.TxnsPerWorker = 50
			var last sim.Result
			for i := 0; i < b.N; i++ {
				last, _ = sim.RunPool(s, cfg)
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkRecoveryCosts measures the asymmetric recovery work profile
// (E13): undo-log pays on abort, intentions pays on commit.
func BenchmarkRecoveryCosts(b *testing.B) {
	for _, s := range []sim.Scheduler{sim.UIPNRBC, sim.DUNFC} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := sim.DefaultRecoveryCostConfig()
			cfg.TxnsPerWorker = 80
			var last sim.RecoveryCostResult
			for i := 0; i < b.N; i++ {
				last = sim.RunRecoveryCost(s, cfg)
			}
			b.ReportMetric(float64(last.Undos), "undos/run")
			b.ReportMetric(float64(last.CommitApplies), "cmtApply/run")
			b.ReportMetric(float64(last.Replays), "replays/run")
			b.ReportMetric(float64(last.WALRecords), "walRecs/run")
		})
	}
}

// BenchmarkAblationSymmetricClosure quantifies the extra conflict mass of
// forcing NRBC symmetric (the paper's Section 6.3 remark).
func BenchmarkAblationSymmetricClosure(b *testing.B) {
	ba := adt.DefaultBankAccount()
	dist := sim.BankingOpDist(50, 50, 1<<20)
	for i := 0; i < b.N; i++ {
		plain := sim.ConflictMass(ba.NRBC(), dist)
		sym := sim.ConflictMass(commute.SymmetricClosure(ba.NRBC()), dist)
		if sym <= plain {
			b.Fatal("symmetric closure must add conflict mass on a mixed workload")
		}
		if i == 0 {
			b.ReportMetric(plain, "massNRBC")
			b.ReportMetric(sym, "massSym")
		}
	}
}

// BenchmarkAblationInvocationVsResult quantifies the conflict-mass cost of
// invocation-based locking (locks ignoring results, Section 8.2).
func BenchmarkAblationInvocationVsResult(b *testing.B) {
	ba := adt.DefaultBankAccount()
	dist := sim.BankingOpDist(50, 50, 1<<20)
	c := ba.Checker()
	lifted := commute.LiftInvocationRelation(
		commute.MaterializeInvocations(c.NFCIRelation(), spec.Invocations(c.Spec())))
	for i := 0; i < b.N; i++ {
		result := sim.ConflictMass(ba.NFC(), dist)
		inv := sim.ConflictMass(lifted, dist)
		if inv <= result {
			b.Fatal("invocation-based locking must add conflict mass")
		}
		if i == 0 {
			b.ReportMetric(result, "massNFC")
			b.ReportMetric(inv, "massNFCI")
		}
	}
}

// BenchmarkAblationDeadlock measures deadlock incidence versus contention
// (accounts in the hot set) under the waits-for detector.
func BenchmarkAblationDeadlock(b *testing.B) {
	for _, accounts := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "acct1", 2: "acct2", 4: "acct4"}[accounts], func(b *testing.B) {
			cfg := sim.BankingConfig{
				Accounts: accounts, Workers: 8, TxnsPerWorker: 50, OpsPerTxn: 4,
				DepositPct: 30, WithdrawPct: 50,
				InitialBalance: 1 << 20, ThinkIters: 1000, Seed: 23,
			}
			var last sim.Result
			for i := 0; i < b.N; i++ {
				last, _ = sim.RunBanking(sim.DUNFC, cfg)
			}
			reportRun(b, last)
		})
	}
}
