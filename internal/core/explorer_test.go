package core

// The exhaustive explorer of I(X, Spec, View, Conflict): the tests of
// Theorems 9 and 10 enumerate every reachable history within bounds.

import (
	"fmt"

	"repro/internal/commute"
	"repro/internal/history"
	"repro/internal/spec"
)

// ResponseEnabledIn evaluates the response-event precondition of Section 4
// against an explicit history. It is the functional form of
// Object.ResponseEnabled, used by the exhaustive explorer, which needs to
// evaluate preconditions against histories it backtracks over.
func ResponseEnabledIn(h history.History, sp spec.Spec, v View, conflict commute.Relation, a history.TxnID, res spec.Response) bool {
	inv, pending := h.PendingInvocation(a)
	if !pending {
		return false
	}
	op := spec.Op(inv, res)
	for _, b := range h.Active() {
		if b == a {
			continue
		}
		for _, p := range history.Opseq(h.ProjectTxn(b)) {
			if conflict.Conflicts(op, p) {
				return false
			}
		}
	}
	serial := append(v.F(h, a), op)
	return sp.Legal(serial)
}

// ExploreConfig bounds an exhaustive exploration of the reachable histories
// of I(X, Spec, View, Conflict).
type ExploreConfig struct {
	Object   history.ObjectID
	Spec     spec.Enumerable
	View     View
	Conflict commute.Relation
	// Txns is the transaction pool; the explorer considers events for each.
	Txns []history.TxnID
	// MaxEvents bounds the history length.
	MaxEvents int
	// MaxOpsPerTxn bounds the number of operations each transaction invokes.
	MaxOpsPerTxn int
	// AllowAbort includes abort events in the exploration.
	AllowAbort bool
}

// Explore enumerates every history of the automaton reachable within the
// bounds, in depth-first order, invoking visit on each non-empty reachable
// history. If visit returns a non-nil error the exploration stops and the
// error is returned. The returned count is the number of histories visited.
//
// The exploration tree is exact: input events (invocations, commits,
// aborts) are always enabled subject to well-formedness, and response
// events are enabled per the Section 4 preconditions. Because the
// environment controls input events, exploring all interleavings of the
// transaction pool covers every behavior of the automaton within the
// bounds.
func Explore(cfg ExploreConfig, visit func(h history.History) error) (int, error) {
	if cfg.MaxEvents <= 0 {
		return 0, fmt.Errorf("core: ExploreConfig.MaxEvents must be positive")
	}
	if cfg.MaxOpsPerTxn <= 0 {
		cfg.MaxOpsPerTxn = cfg.MaxEvents
	}
	invocations := spec.Invocations(cfg.Spec)
	count := 0
	h := make(history.History, 0, cfg.MaxEvents)

	var rec func() error
	rec = func() error {
		if len(h) >= cfg.MaxEvents {
			return nil
		}
		committed := h.Committed()
		aborted := h.Aborted()
		opsOf := func(t history.TxnID) int {
			n := 0
			for _, e := range h {
				if e.Txn == t && e.Kind == history.Invoke {
					n++
				}
			}
			return n
		}
		push := func(e history.Event) error {
			h = append(h, e)
			count++
			if err := visit(h); err != nil {
				return err
			}
			if err := rec(); err != nil {
				return err
			}
			h = h[:len(h)-1]
			return nil
		}
		for _, t := range cfg.Txns {
			if committed[t] || aborted[t] {
				continue
			}
			inv, pending := h.PendingInvocation(t)
			if pending {
				for _, r := range spec.Responses(cfg.Spec, inv) {
					if ResponseEnabledIn(h, cfg.Spec, cfg.View, cfg.Conflict, t, r) {
						if err := push(history.Event{Kind: history.Respond, Obj: cfg.Object, Txn: t, Res: r}); err != nil {
							return err
						}
					}
				}
				continue
			}
			hasEvents := len(h.ProjectTxn(t)) > 0
			if hasEvents {
				if err := push(history.Event{Kind: history.Commit, Obj: cfg.Object, Txn: t}); err != nil {
					return err
				}
				if cfg.AllowAbort {
					if err := push(history.Event{Kind: history.Abort, Obj: cfg.Object, Txn: t}); err != nil {
						return err
					}
				}
			}
			if opsOf(t) < cfg.MaxOpsPerTxn {
				for _, inv := range invocations {
					if err := push(history.Event{Kind: history.Invoke, Obj: cfg.Object, Txn: t, Inv: inv}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	if err := rec(); err != nil {
		return count, err
	}
	return count, nil
}
