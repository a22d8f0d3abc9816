// Quickstart: create a transaction engine with two bank accounts using
// update-in-place recovery and the minimal NRBC conflict relation
// (Theorem 9's optimum), run a transfer, abort another, and verify the
// recorded history is dynamic atomic.
package main

import (
	"fmt"
	"log"

	"repro/internal/adt"
	"repro/internal/atomicity"
	"repro/internal/txn"
)

func main() {
	// 1. Build an engine that records its history.
	engine := txn.NewEngine(txn.Options{RecordHistory: true})

	// 2. Register two bank accounts: update-in-place (undo-log) recovery
	//    requires conflicts containing NRBC(Spec) — Theorem 9.
	account := adt.BankAccount{InitialBalance: 100, MaxBalance: 1 << 20, Amounts: []int{1, 2, 3}}
	engine.MustRegister("checking", account, account.NRBC(), txn.UndoLogRecovery)
	engine.MustRegister("savings", account, account.NRBC(), txn.UndoLogRecovery)

	// 3. Transfer 3 from checking to savings in one transaction.
	transfer := engine.Begin()
	if _, err := transfer.Invoke("checking", adt.Withdraw(3)); err != nil {
		log.Fatal(err)
	}
	if _, err := transfer.Invoke("savings", adt.Deposit(3)); err != nil {
		log.Fatal(err)
	}
	if err := transfer.Commit(); err != nil {
		log.Fatal(err)
	}

	// 4. Start a deposit and abort it: the undo log rolls it back.
	oops := engine.Begin()
	if _, err := oops.Invoke("checking", adt.Deposit(50)); err != nil {
		log.Fatal(err)
	}
	if err := oops.Abort(); err != nil {
		log.Fatal(err)
	}

	// 5. Read the final balances.
	reader := engine.Begin()
	checking, _ := reader.Invoke("checking", adt.Balance())
	savings, _ := reader.Invoke("savings", adt.Balance())
	if err := reader.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checking = %s (want 97), savings = %s (want 103)\n", checking, savings)

	// 6. Verify the recorded history end to end.
	h := engine.History()
	specs := atomicity.Specs{"checking": account.Spec(), "savings": account.Spec()}
	da, viol, err := atomicity.DynamicAtomic(h, specs)
	if err != nil {
		log.Fatal(err)
	}
	if !da {
		log.Fatalf("history not dynamic atomic: %v", viol)
	}
	fmt.Printf("recorded %d events; history is dynamic atomic\n", len(h))
	fmt.Printf("write-ahead log written: %d records\n", engine.WAL().FlushedRecords())
}
