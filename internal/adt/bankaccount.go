package adt

import (
	"fmt"
	"strconv"

	"repro/internal/commute"
	"repro/internal/spec"
)

// Bank account operations (paper, Section 3.2): deposit(i) always succeeds;
// withdraw(i) returns "ok" and debits iff the balance is at least i, and
// "no" otherwise; balance returns the current balance. All invocations are
// total and deterministic, but the operations' conflicts depend on results
// (Figures 6.1 and 6.2), making the account the paper's central example of
// result-dependent locking and of the NFC/NRBC incomparability.

// Deposit builds the deposit(i) invocation.
func Deposit(i int) spec.Invocation { return spec.NewInvocation("deposit", i) }

// Withdraw builds the withdraw(i) invocation.
func Withdraw(i int) spec.Invocation { return spec.NewInvocation("withdraw", i) }

// Balance builds the balance invocation.
func Balance() spec.Invocation { return spec.NewInvocation("balance") }

// DepositOk is the operation [deposit(i), ok].
func DepositOk(i int) spec.Operation { return spec.Op(Deposit(i), "ok") }

// WithdrawOk is the operation [withdraw(i), ok].
func WithdrawOk(i int) spec.Operation { return spec.Op(Withdraw(i), "ok") }

// WithdrawNo is the operation [withdraw(i), no].
func WithdrawNo(i int) spec.Operation { return spec.Op(Withdraw(i), "no") }

// BalanceIs is the operation [balance, b].
func BalanceIs(b int) spec.Operation {
	return spec.Op(Balance(), spec.Response(strconv.Itoa(b)))
}

// baKind classifies a bank-account operation for the analytic relations.
type baKind int

const (
	baDeposit baKind = iota
	baWithdrawOk
	baWithdrawNo
	baBalance
	baUnknown
)

func classifyBA(op spec.Operation) baKind {
	switch op.Inv.Name {
	case "deposit":
		return baDeposit
	case "withdraw":
		if op.Res == "ok" {
			return baWithdrawOk
		}
		return baWithdrawNo
	case "balance":
		return baBalance
	}
	return baUnknown
}

// BankAccount is the bank-account Type. InitialBalance seeds the runtime
// machine; MaxBalance and Amounts bound the window spec used by the exact
// decision procedures.
type BankAccount struct {
	// InitialBalance is the starting balance of the runtime machine.
	InitialBalance int
	// MaxBalance caps the window specification's state space.
	MaxBalance int
	// Amounts are the deposit/withdraw amounts included in the window
	// specification's alphabet.
	Amounts []int
}

// DefaultBankAccount returns the configuration used by the figure
// regeneration and tests: balances 0..12, amounts {1, 2, 3}.
func DefaultBankAccount() BankAccount {
	return BankAccount{InitialBalance: 0, MaxBalance: 12, Amounts: []int{1, 2, 3}}
}

// Name implements Type.
func (BankAccount) Name() string { return "bank-account" }

// Spec implements Type: a deterministic FuncSpec whose states are balances
// "0".."MaxBalance". Deposits that would exceed the cap are illegal in the
// window; callers quantifying over prefixes must therefore restrict α to
// CoreStates (see AlphaRestriction) so cap effects never distort the
// FC/RBC checks. Distinct balances are separated by the balance operation,
// so the looks-like relation is unaffected by the cap.
func (b BankAccount) Spec() spec.Enumerable {
	var ops []spec.Operation
	for _, i := range b.Amounts {
		ops = append(ops, DepositOk(i), WithdrawOk(i), WithdrawNo(i))
	}
	for v := 0; v <= b.MaxBalance; v++ {
		ops = append(ops, BalanceIs(v))
	}
	return &spec.FuncSpec{
		SpecName: b.Name(),
		Start:    []string{strconv.Itoa(b.InitialBalance)},
		Ops:      ops,
		NextFunc: func(state string, op spec.Operation) []string {
			s, err := strconv.Atoi(state)
			if err != nil {
				return nil
			}
			switch classifyBA(op) {
			case baDeposit:
				i := mustInt(op.Inv.Args)
				if s+i > b.MaxBalance {
					return nil
				}
				return []string{strconv.Itoa(s + i)}
			case baWithdrawOk:
				i := mustInt(op.Inv.Args)
				if s < i {
					return nil
				}
				return []string{strconv.Itoa(s - i)}
			case baWithdrawNo:
				i := mustInt(op.Inv.Args)
				if s >= i {
					return nil
				}
				return []string{state}
			case baBalance:
				if string(op.Res) != state {
					return nil
				}
				return []string{state}
			}
			return nil
		},
	}
}

// AlphaRestriction returns the commute.Option restricting quantification
// over prefixes to balances at most MaxBalance minus headroom, so that the
// two quantified operations can never collide with the window cap. A
// headroom of twice the largest amount is always sufficient for the
// pairwise FC/RBC checks.
func (b BankAccount) AlphaRestriction() commute.Option {
	maxAmt := 0
	for _, a := range b.Amounts {
		if a > maxAmt {
			maxAmt = a
		}
	}
	limit := b.MaxBalance - 2*maxAmt
	return commute.WithAlphaRestriction(func(states []string) bool {
		for _, s := range states {
			v, err := strconv.Atoi(s)
			if err != nil || v > limit {
				return false
			}
		}
		return true
	})
}

// Checker builds a commute.Checker for the window spec with the α
// restriction applied.
func (b BankAccount) Checker() *commute.Checker {
	return commute.NewChecker(b.Spec(), b.AlphaRestriction())
}

// amount returns the integer amount of a deposit/withdraw operation.
func amount(op spec.Operation) int { return mustInt(op.Inv.Args) }

// balanceVal returns the integer result of a balance operation.
func balanceVal(op spec.Operation) int { return mustInt(string(op.Res)) }

// NFC implements Type: the exact non-forward-commuting pairs, closed-form
// for all positive amounts. At the kind level this is Figure 6.1 —
// deposits conflict with failed withdrawals and balances; successful
// withdrawals conflict with each other and with balances — refined by the
// one value condition the figure's symbolic entries leave implicit:
// [withdraw(i),ok] and [balance,b] can both be legal (and hence conflict)
// only when b ≥ i.
func (BankAccount) NFC() commute.Relation {
	return commute.RelationFunc{
		RelName: "NFC(bank-account)",
		F: func(p, q spec.Operation) bool {
			kp, kq := classifyBA(p), classifyBA(q)
			switch {
			case kp == baDeposit && kq == baWithdrawNo,
				kp == baWithdrawNo && kq == baDeposit,
				kp == baDeposit && kq == baBalance,
				kp == baBalance && kq == baDeposit,
				kp == baWithdrawOk && kq == baWithdrawOk:
				return true
			case kp == baWithdrawOk && kq == baBalance:
				return balanceVal(q) >= amount(p)
			case kp == baBalance && kq == baWithdrawOk:
				return balanceVal(p) >= amount(q)
			}
			return false
		},
	}
}

// NRBC implements Type: the exact non-right-backward-commuting pairs,
// closed-form for all positive amounts. At the kind level this is
// Figure 6.2, refined by the value conditions the figure's symbolic entries
// leave implicit ([withdraw(i),ok] against [balance,b] and [balance,b]
// against [deposit(i),ok] can only conflict when b ≥ i). The relation is
// asymmetric: a requested successful withdrawal conflicts with a held
// deposit (the withdrawal cannot be pushed before the deposit), but a
// requested deposit does not conflict with a held successful withdrawal.
func (BankAccount) NRBC() commute.Relation {
	return commute.RelationFunc{
		RelName: "NRBC(bank-account)",
		F: func(p, q spec.Operation) bool {
			kp, kq := classifyBA(p), classifyBA(q)
			switch {
			case kp == baDeposit && kq == baWithdrawNo,
				kp == baDeposit && kq == baBalance,
				kp == baWithdrawOk && kq == baDeposit,
				kp == baWithdrawNo && kq == baWithdrawOk,
				kp == baBalance && kq == baWithdrawOk:
				return true
			case kp == baWithdrawOk && kq == baBalance:
				return balanceVal(q) >= amount(p)
			case kp == baBalance && kq == baDeposit:
				return balanceVal(p) >= amount(q)
			}
			return false
		},
	}
}

// RW implements Type: only balance is a read operation.
func (b BankAccount) RW() commute.Relation {
	return readOnlyRelation(b.Name(), func(op spec.Operation) bool {
		return classifyBA(op) == baBalance
	})
}

// Machine implements Type.
func (b BankAccount) Machine() Machine { return baMachine{initial: b.InitialBalance} }

// BAValue is the runtime state of a bank account: its balance. The
// machine's states are *BAValue, changed in place.
type BAValue int

// Clone implements Value.
func (v *BAValue) Clone() Value { c := *v; return &c }

// CopyFrom implements Value.
func (v *BAValue) CopyFrom(src Value) { *v = *src.(*BAValue) }

// Encode implements Value.
func (v *BAValue) Encode() string { return strconv.Itoa(int(*v)) }

type baMachine struct{ initial int }

func (baMachine) Name() string { return "bank-account" }

func (m baMachine) Init() Value {
	v := BAValue(m.initial)
	return &v
}

func (baMachine) Peek(v Value, inv spec.Invocation) (spec.Response, error) {
	bal, err := stateOf[*BAValue](v, "bank-account")
	if err != nil {
		return "", err
	}
	switch inv.Name {
	case "deposit":
		return "ok", nil
	case "withdraw":
		if int(*bal) >= mustInt(inv.Args) {
			return "ok", nil
		}
		return "no", nil
	case "balance":
		return spec.Response(strconv.Itoa(int(*bal))), nil
	}
	return "", fmt.Errorf("adt: bank-account: unknown invocation %s", inv)
}

func (baMachine) Apply(v Value, op spec.Operation) error { return baShift(v, op, 1) }

func (baMachine) Undo(v Value, op spec.Operation) error { return baShift(v, op, -1) }

// baShift moves the balance by op's effect times sign: 1 applies op, -1
// undoes it. A failed withdrawal and a balance change nothing.
func baShift(v Value, op spec.Operation, sign BAValue) error {
	bal, err := stateOf[*BAValue](v, "bank-account")
	if err != nil {
		return err
	}
	switch classifyBA(op) {
	case baDeposit:
		*bal += sign * BAValue(mustInt(op.Inv.Args))
	case baWithdrawOk:
		*bal -= sign * BAValue(mustInt(op.Inv.Args))
	case baWithdrawNo, baBalance:
	default:
		return fmt.Errorf("adt: bank-account: cannot step %s", op)
	}
	return nil
}

// DecodeValue implements ValueCodec: a bank-account state is its balance.
func (baMachine) DecodeValue(s string) (Value, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return nil, fmt.Errorf("adt: bank-account: bad encoded state %q: %w", s, err)
	}
	v := BAValue(n)
	return &v, nil
}
