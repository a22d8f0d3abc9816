// Package locksafe checks that every latch/mutex acquire is paired with
// a release reachable on all return paths.
//
// The engine's latches (managedObject.mu, the checkpoint gate)
// serialize the op path; a single error-exit that forgets its Unlock
// wedges the object forever — the exact bug PR 3 fixed by hand when
// Commit/Abort leaked locks on their error exits. locksafe walks each
// function with an abstract lock-set: acquires (.Lock/.RLock) add the
// receiver expression to the held set, releases (.Unlock/.RUnlock) and
// defers of releases — including defers of local closures whose bodies
// release, the engine's `ungate` pattern — remove or cover it, and every
// return (and the implicit final return) must leave nothing held and
// uncovered.
//
// The interpretation is deliberately conservative rather than complete:
// functions containing goto, labels, fallthrough or TryLock are skipped
// (none occur on the engine's latch paths), branch merges take the union
// of held sets, and a loop body must leave the lock state exactly as it
// found it. Intentional exceptions carry a //lint:ignore locksafe
// justification.
package locksafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the locksafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "every latch/mutex acquire must be released on all return paths " +
		"(defer or per-branch); a leaked latch wedges the object forever",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, fd := range analysis.FuncDecls(pass.Files) {
		checkFunc(pass, fd.Body)
		// Function literals that acquire locks are checked as functions in
		// their own right (worker-goroutine bodies); literals that only
		// release are helpers like the engine's ungate closure and are
		// accounted for at their call sites instead.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				if eff := closureEffect(fl); len(eff.acquires) > 0 {
					checkFunc(pass, fl.Body)
				}
				return false
			}
			return true
		})
	}
	return nil
}

// lockKey identifies a lock by its receiver expression text plus the
// read/write mode, e.g. "mo.mu" or "e.ckptGate/R".
type lockKey string

func keyOf(recv ast.Expr, read bool) lockKey {
	k := types.ExprString(recv)
	if read {
		k += "/R"
	}
	return lockKey(k)
}

// lockState is the abstract state at a program point.
type lockState struct {
	held     map[lockKey]token.Pos // acquire position
	deferred map[lockKey]bool      // covered by a registered defer
}

func newState() *lockState {
	return &lockState{held: map[lockKey]token.Pos{}, deferred: map[lockKey]bool{}}
}

func (s *lockState) clone() *lockState {
	c := newState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// merge unions two fall-through states: a lock held on either path must
// still be released downstream.
func (s *lockState) merge(o *lockState) {
	for k, v := range o.held {
		if _, ok := s.held[k]; !ok {
			s.held[k] = v
		}
	}
	for k := range o.deferred {
		s.deferred[k] = true
	}
}

func (s *lockState) equalHeld(o *lockState) bool {
	if len(s.held) != len(o.held) {
		return false
	}
	for k := range s.held {
		if _, ok := o.held[k]; !ok {
			return false
		}
	}
	return true
}

// effect is the net lock footprint of a closure body, used both for
// defer-of-closure releases and for applying direct closure calls.
type effect struct {
	acquires map[lockKey]token.Pos
	releases map[lockKey]bool
}

// closureEffect scans a function literal (without interpreting its
// control flow) for the locks it mentions.
func closureEffect(fl *ast.FuncLit) effect {
	eff := effect{acquires: map[lockKey]token.Pos{}, releases: map[lockKey]bool{}}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != fl {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if k, acquire, ok := classify(call); ok {
				if acquire {
					eff.acquires[k] = call.Pos()
				} else {
					eff.releases[k] = true
				}
			}
		}
		return true
	})
	return eff
}

// classify recognizes x.Lock()/x.RLock() (acquire) and
// x.Unlock()/x.RUnlock() (release) calls.
func classify(call *ast.CallExpr) (k lockKey, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		return keyOf(sel.X, false), true, true
	case "RLock":
		return keyOf(sel.X, true), true, true
	case "Unlock":
		return keyOf(sel.X, false), false, true
	case "RUnlock":
		return keyOf(sel.X, true), false, true
	}
	return "", false, false
}

// checker interprets one function body.
type checker struct {
	pass     *analysis.Pass
	closures map[string]effect // local name -> closure effect
	bail     bool
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass, closures: map[string]effect{}}
	// Conservative bail-outs: control flow the interpreter does not model.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.LabeledStmt, *ast.BranchStmt:
			if br, ok := n.(*ast.BranchStmt); ok && br.Label == nil &&
				(br.Tok == token.BREAK || br.Tok == token.CONTINUE) {
				return true
			}
			c.bail = true
		case *ast.SelectorExpr:
			if n.Sel.Name == "TryLock" || n.Sel.Name == "TryRLock" {
				c.bail = true
			}
		}
		return true
	})
	if c.bail {
		return
	}
	// Pre-scan closure bindings so `defer ungate()` and `ungate()` calls
	// resolve to the locks the closure releases.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if fl, ok := rhs.(*ast.FuncLit); ok && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						c.closures[id.Name] = closureEffect(fl)
					}
				}
			}
		}
		return true
	})
	st := newState()
	st, terminated := c.stmts(body.List, st, nil)
	if !terminated {
		c.checkExit(st, body.End(), "function exit")
	}
}

// loopCtx carries a loop's entry state so break/continue can be checked.
type loopCtx struct {
	entry  *lockState
	breaks []*lockState
}

// stmts interprets a statement list, returning the fall-through state and
// whether every path terminated (returned/panicked/broke out).
func (c *checker) stmts(list []ast.Stmt, st *lockState, loop *loopCtx) (*lockState, bool) {
	for _, s := range list {
		var terminated bool
		st, terminated = c.stmt(s, st, loop)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (c *checker) stmt(s ast.Stmt, st *lockState, loop *loopCtx) (*lockState, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.stmts(s.List, st, loop)

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			return st, c.call(call, st)
		}
		return st, false

	case *ast.DeferStmt:
		c.deferCall(s.Call, st)
		return st, false

	case *ast.GoStmt:
		return st, false // separate goroutine: its locks are its own

	case *ast.ReturnStmt:
		c.checkExit(st, s.Pos(), "return")
		return st, true

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if loop != nil {
				loop.breaks = append(loop.breaks, st.clone())
			}
			return st, true
		case token.CONTINUE:
			if loop != nil && !st.equalHeld(loop.entry) {
				c.pass.Reportf(s.Pos(),
					"lock state changes across loop iterations at continue: %s",
					c.heldDiff(st, loop.entry))
			}
			return st, true
		}
		return st, true

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st, loop)
		}
		thenSt, thenTerm := c.stmts(s.Body.List, st.clone(), loop)
		var elseSt *lockState
		elseTerm := false
		if s.Else != nil {
			elseSt, elseTerm = c.stmt(s.Else, st.clone(), loop)
		} else {
			elseSt = st.clone()
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			thenSt.merge(elseSt)
			return thenSt, false
		}

	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st, loop)
		}
		inner := &loopCtx{entry: st.clone()}
		bodySt, bodyTerm := c.stmts(s.Body.List, st.clone(), inner)
		if !bodyTerm && !bodySt.equalHeld(inner.entry) {
			c.pass.Reportf(s.Pos(),
				"lock state changes across loop iterations: %s",
				c.heldDiff(bodySt, inner.entry))
		}
		out := st.clone()
		for _, b := range inner.breaks {
			out.merge(b)
		}
		// An infinite loop with no breaks never falls through.
		if s.Cond == nil && len(inner.breaks) == 0 {
			return out, true
		}
		return out, false

	case *ast.RangeStmt:
		inner := &loopCtx{entry: st.clone()}
		bodySt, bodyTerm := c.stmts(s.Body.List, st.clone(), inner)
		if !bodyTerm && !bodySt.equalHeld(inner.entry) {
			c.pass.Reportf(s.Pos(),
				"lock state changes across loop iterations: %s",
				c.heldDiff(bodySt, inner.entry))
		}
		out := st.clone()
		for _, b := range inner.breaks {
			out.merge(b)
		}
		return out, false

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.cases(s, st, loop)

	case *ast.AssignStmt:
		// `v, err := l.AppendAsync(r)` has no lock effect, but an acquire
		// buried in an assignment RHS would; classify any direct calls.
		for _, rhs := range s.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				c.call(call, st)
			}
		}
		return st, false

	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st, loop)

	default:
		return st, false
	}
}

// cases interprets switch/type-switch/select clause bodies from a common
// entry state and merges the survivors.
func (c *checker) cases(s ast.Stmt, st *lockState, loop *loopCtx) (*lockState, bool) {
	var bodies [][]ast.Stmt
	hasDefault := false
	collect := func(body *ast.BlockStmt) {
		for _, cl := range body.List {
			switch cl := cl.(type) {
			case *ast.CaseClause:
				bodies = append(bodies, cl.Body)
				if cl.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				bodies = append(bodies, cl.Body)
			}
		}
	}
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st, loop)
		}
		collect(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st, loop)
		}
		collect(s.Body)
	case *ast.SelectStmt:
		hasDefault = true // a select blocks; every live path is a clause
		collect(s.Body)
	}
	var out *lockState
	allTerm := len(bodies) > 0
	for _, b := range bodies {
		bs, term := c.stmts(b, st.clone(), loop)
		if !term {
			allTerm = false
			if out == nil {
				out = bs
			} else {
				out.merge(bs)
			}
		}
	}
	if !hasDefault || out == nil {
		if out == nil {
			out = st.clone()
		} else {
			out.merge(st)
		}
		allTerm = false
	}
	return out, allTerm
}

// call applies one call expression's lock effect; reports true if the
// call terminates the path (panic).
func (c *checker) call(call *ast.CallExpr, st *lockState) bool {
	if k, acquire, ok := classify(call); ok {
		if acquire {
			st.held[k] = call.Pos()
		} else {
			delete(st.held, k)
		}
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if id.Name == "panic" {
			return true
		}
		if eff, ok := c.closures[id.Name]; ok {
			for k := range eff.releases {
				delete(st.held, k)
			}
			for k, pos := range eff.acquires {
				st.held[k] = pos
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "os" && sel.Sel.Name == "Exit" {
			return true
		}
	}
	return false
}

// deferCall registers a deferred release: a direct x.Unlock(), a closure
// literal containing releases, or a local closure name bound to one.
func (c *checker) deferCall(call *ast.CallExpr, st *lockState) {
	if k, acquire, ok := classify(call); ok && !acquire {
		st.deferred[k] = true
		return
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		for k := range closureEffect(fl).releases {
			st.deferred[k] = true
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if eff, ok := c.closures[id.Name]; ok {
			for k := range eff.releases {
				st.deferred[k] = true
			}
		}
	}
}

// checkExit reports every lock held and not defer-covered at an exit,
// in sorted order so cclint's own output is deterministic.
func (c *checker) checkExit(st *lockState, pos token.Pos, where string) {
	keys := make([]string, 0, len(st.held))
	for k := range st.held {
		if !st.deferred[k] {
			keys = append(keys, string(k))
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.pass.Reportf(pos,
			"lock %s acquired at %s is not released on this %s path",
			k, c.pass.Fset.Position(st.held[lockKey(k)]), where)
	}
}

// heldDiff renders the symmetric difference of two held sets.
func (c *checker) heldDiff(a, b *lockState) string {
	var diff []string
	for k := range a.held {
		if _, ok := b.held[k]; !ok {
			diff = append(diff, string(k)+" newly held")
		}
	}
	for k := range b.held {
		if _, ok := a.held[k]; !ok {
			diff = append(diff, string(k)+" newly released")
		}
	}
	sort.Strings(diff)
	return fmt.Sprint(diff)
}
