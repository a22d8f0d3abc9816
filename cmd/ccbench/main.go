// Command ccbench runs the paper-artifact experiments of EXPERIMENTS.md:
// the deterministic conflict-mass sweep (the trade-off curve between
// update-in-place and deferred-update recovery), the engine-level banking
// and resource-pool workloads under every scheduler pairing, and the
// recovery cost profile. Engine performance is measured by bench/ (see
// BENCHMARK.json), not here.
//
// Usage:
//
//	ccbench                            # full suite at default sizes
//	ccbench -quick                     # reduced sizes
//	ccbench -experiment mass           # one of: mass, banking, pool, recovery
//	ccbench -experiment mass,pool      # a comma-separated subset
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/adt"
	"repro/internal/commute"
	"repro/internal/sim"
)

// experimentOrder is the single source of truth for experiment names and
// their run order; the flag help, the validation set, and the usage error
// all derive from it.
var experimentOrder = []struct {
	name string
	run  func(bool)
}{
	{"mass", massExperiment},
	{"banking", bankingExperiment},
	{"pool", poolExperiment},
	{"recovery", recoveryExperiment},
}

func experimentNames() string {
	names := make([]string, len(experimentOrder))
	for i, e := range experimentOrder {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	quick := flag.Bool("quick", false, "run reduced sizes")
	experiment := flag.String("experiment", "", "run selected experiments (comma-separated): "+experimentNames())
	flag.Parse()

	known := map[string]bool{}
	for _, e := range experimentOrder {
		known[e.name] = true
	}
	selected := map[string]bool{}
	if *experiment != "" {
		for _, name := range strings.Split(*experiment, ",") {
			if !known[name] {
				fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q (valid: %s)\n", name, experimentNames())
				flag.Usage()
				os.Exit(2)
			}
			selected[name] = true
		}
	}
	for _, e := range experimentOrder {
		if len(selected) == 0 || selected[e.name] {
			e.run(*quick)
		}
	}
}

// massExperiment prints the deterministic conflict-mass sweep: the
// machine-independent trade-off curve (E11's shape).
func massExperiment(bool) {
	ba := adt.DefaultBankAccount()
	mixes := [][2]int{{0, 100}, {10, 90}, {20, 80}, {30, 70}, {40, 60}, {50, 50}, {60, 40}, {70, 30}, {80, 20}, {90, 10}, {100, 0}}
	rels := []commute.Relation{ba.NRBC(), ba.NFC(), ba.RW()}
	rows := sim.ConflictMassTable(rels, mixes, 1<<20)
	fmt.Println(sim.RenderMassTable(
		"E11a — exact conflict mass by mix (deposit%/withdraw%), bank account, high balance",
		[]string{"UIP(NRBC)", "DU(NFC)", "RW"}, rows))
	fmt.Println("shape: NRBC = 0 on withdraw-only mixes (UIP wins), NFC < NRBC on deposit-heavy")
	fmt.Println("mixes (DU wins), equal at 50/50, RW dominates everywhere. The relations are")
	fmt.Println("incomparable: neither column dominates the other.")
	fmt.Println()
}

func bankingExperiment(quick bool) {
	cfg := sim.DefaultBankingConfig()
	if quick {
		cfg.TxnsPerWorker = 40
	}
	for _, mix := range []struct {
		name     string
		dep, wdr int
	}{
		{"withdraw-heavy (0/100)", 0, 100},
		{"balanced (30/50)", 30, 50},
		{"deposit-heavy (80/20)", 80, 20},
	} {
		c := cfg
		c.DepositPct, c.WithdrawPct = mix.dep, mix.wdr
		var rows []sim.Result
		for _, s := range sim.Schedulers {
			r, _ := sim.RunBanking(s, c)
			rows = append(rows, r)
		}
		fmt.Println(sim.RenderTable(
			fmt.Sprintf("E11b — banking engine run, %s, %d hot accounts, %d workers",
				mix.name, c.Accounts, c.Workers), rows))
	}
}

func poolExperiment(quick bool) {
	cfg := sim.DefaultPoolConfig()
	if quick {
		cfg.TxnsPerWorker = 40
	}
	var rows []sim.Result
	for _, s := range []sim.Scheduler{sim.UIPNRBC, sim.DUNFC, sim.UIPRW, sim.DURW} {
		r, _ := sim.RunPool(s, cfg)
		rows = append(rows, r)
	}
	fmt.Println(sim.RenderTable(
		fmt.Sprintf("E12 — resource pool (partial+nondeterministic alloc), %d resources, %d workers",
			cfg.Resources, cfg.Workers), rows))
	fmt.Println("shape: update-in-place sees in-flight allocations and parallelizes allocs;")
	fmt.Println("deferred update computes every alloc against the committed pool and serializes.")
	fmt.Println()
}

func recoveryExperiment(quick bool) {
	cfg := sim.DefaultRecoveryCostConfig()
	if quick {
		cfg.TxnsPerWorker = 60
	}
	fmt.Printf("E13 — recovery cost profile (%d%% aborts)\n", cfg.AbortPct)
	fmt.Printf("%-12s %8s %8s %10s %10s %10s %8s\n",
		"scheduler", "commits", "aborts", "undos", "cmtApply", "replays", "walRecs")
	for _, s := range []sim.Scheduler{sim.UIPNRBC, sim.DUNFC} {
		r := sim.RunRecoveryCost(s, cfg)
		fmt.Printf("%-12s %8d %8d %10d %10d %10d %8d\n",
			r.Scheduler, r.Commits, r.Aborts, r.Undos, r.CommitApplies, r.Replays, r.WALRecords)
	}
	fmt.Println("shape: undo-log pays on abort (undos, WAL); intentions pays on commit")
	fmt.Println("(application + workspace replays) and aborts for free.")
	fmt.Println()
}
