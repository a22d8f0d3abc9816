package main

import (
	"strings"
	"testing"
)

// The hand-built scripts below use three accounts at balance 100 and one
// acknowledged transfer of 2 from account 0 to account 1.
func oracleFixture() (want []int64, acked []op) {
	acked = []op{{acct: 0, inv: invWithdraw + 1}, {acct: 1, inv: invDeposit + 1}}
	l := make(ledger, 3)
	l.apply(acked, []bool{true, true})
	return expected(100, 3, l), acked
}

func TestOracleAcceptsExactState(t *testing.T) {
	want, _ := oracleFixture()
	if errs := checkBalances("t", want, []int64{98, 102, 100}, nil, true); errs != nil {
		t.Fatalf("exact state reported: %v", errs)
	}
}

func TestOracleLedgerSkipsRefusedWithdrawal(t *testing.T) {
	l := make(ledger, 2)
	l.apply([]op{{acct: 0, inv: invWithdraw + 2}, {acct: 1, inv: invBalance}}, []bool{false, false})
	if l[0] != 0 || l[1] != 0 {
		t.Fatalf("refused withdrawal or balance read changed the ledger: %v", l)
	}
}

func TestOracleReportsLostAcknowledgedCommit(t *testing.T) {
	want, _ := oracleFixture()
	// The restarted stores are back at the initial balances: the
	// acknowledged transfer is gone. Money is still conserved, so only the
	// per-account lines can catch it.
	errs := checkBalances("t", want, []int64{100, 100, 100}, nil, true)
	if len(errs) != 2 {
		t.Fatalf("want one line per account of the lost transfer, got %v", errs)
	}
	for _, e := range errs {
		if !strings.Contains(e, "acknowledged commit is missing") {
			t.Errorf("lost commit not named: %s", e)
		}
	}
}

func TestOracleReportsSurvivingLoser(t *testing.T) {
	want, _ := oracleFixture()
	// A transfer of 3 from account 2 to account 0 was open at the crash
	// and both of its legs survived restart.
	open := [][2]op{{{acct: 2, inv: invWithdraw + 2}, {acct: 0, inv: invDeposit + 2}}}
	errs := checkBalances("t", want, []int64{101, 102, 97}, open, true)
	if len(errs) != 2 {
		t.Fatalf("want one line per leg of the loser, got %v", errs)
	}
	for _, e := range errs {
		if !strings.Contains(e, "loser survived") {
			t.Errorf("surviving loser not named: %s", e)
		}
	}
}

func TestOracleReportsHalfAppliedTransfer(t *testing.T) {
	want, _ := oracleFixture()
	// The withdrawal of the acknowledged transfer is there, its deposit
	// is not.
	errs := checkBalances("t", want, []int64{98, 100, 100}, nil, true)
	if len(errs) != 2 {
		t.Fatalf("want the account line and the conservation line, got %v", errs)
	}
	if !strings.Contains(errs[1], "not conserved") {
		t.Errorf("half-applied transfer not reported as a conservation failure: %s", errs[1])
	}
}

func TestOracleBoundsItsReport(t *testing.T) {
	n := 3 * maxReported
	want, got := make([]int64, n), make([]int64, n)
	for i := range got {
		got[i] = 1
	}
	errs := checkBalances("t", want, got, nil, false)
	if len(errs) != maxReported+1 || !strings.Contains(errs[maxReported], "more accounts differ") {
		t.Fatalf("want %d lines and a count of the rest, got %d: %v", maxReported, len(errs), errs)
	}
}
