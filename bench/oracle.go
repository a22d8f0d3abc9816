package main

import "fmt"

// The oracle is the driver's own record of what the engine acknowledged:
// each client adds a transaction's balance changes to its ledger only after
// Commit returned nil. An account's committed value must then equal the
// initial balance plus the sum of the ledgers — on the live engine after
// the steady phase, and again on the stores restarted from the crash image,
// where every acknowledged commit must be present and every transaction
// that was open at the crash absent.

// ledger is one client's acknowledged balance change per account.
type ledger []int64

// apply records the successful operations of an acknowledged transaction.
// ok[k] is whether operation k returned "ok" (a refused withdrawal changes
// nothing).
func (l ledger) apply(body []op, ok []bool) {
	for k, o := range body {
		if ok[k] {
			l[o.acct] += delta(o.inv)
		}
	}
}

// expected sums the clients' ledgers over the initial balance.
func expected(initial int64, accounts int, ledgers ...ledger) []int64 {
	want := make([]int64, accounts)
	for i := range want {
		want[i] = initial
		for _, l := range ledgers {
			want[i] += l[i]
		}
	}
	return want
}

// maxReported bounds the per-account lines of one check so a systematic
// failure stays readable.
const maxReported = 8

// checkBalances compares observed committed balances with the oracle and
// returns one message per discrepancy (nil when they agree). open lists
// the transactions that were begun but never committed when the balances
// were taken; a discrepancy that one of their legs explains is labelled as
// a surviving loser. Transfers move money between accounts, so when
// conserved is set the observed total must equal the expected total: a
// half-applied transfer shows up as a conservation failure even if the
// per-account lines were truncated.
func checkBalances(where string, want, got []int64, open [][2]op, conserved bool) []string {
	var errs []string
	var wantSum, gotSum int64
	bad := 0
	for i := range want {
		wantSum += want[i]
		gotSum += got[i]
		diff := got[i] - want[i]
		if diff == 0 {
			continue
		}
		bad++
		if bad > maxReported {
			continue
		}
		msg := fmt.Sprintf("%s: account %d has %d, oracle says %d (diff %+d)", where, i, got[i], want[i], diff)
		switch {
		case explainedByOpen(i, diff, open):
			msg += ": matches a leg of a transaction that never committed, a loser survived"
		default:
			msg += ": an acknowledged commit is missing or an effect was applied twice"
		}
		errs = append(errs, msg)
	}
	if bad > maxReported {
		errs = append(errs, fmt.Sprintf("%s: %d more accounts differ", where, bad-maxReported))
	}
	if conserved && gotSum != wantSum {
		errs = append(errs, fmt.Sprintf("%s: total is %d, oracle says %d: money was not conserved, a transfer is half applied", where, gotSum, wantSum))
	}
	return errs
}

func explainedByOpen(acct int, diff int64, open [][2]op) bool {
	for _, legs := range open {
		for _, o := range legs {
			if int(o.acct) == acct && delta(o.inv) == diff {
				return true
			}
		}
	}
	return false
}
