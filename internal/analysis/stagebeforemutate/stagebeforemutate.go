// Package stagebeforemutate checks Weihl's recoverability ordering: a
// WAL stage call must dominate the store mutation it covers.
//
// In recovery.UndoLog, the update-in-place state (`current`) and the
// per-transaction undo chains (`chain`) may only change after the record
// describing the change has been staged into the log. The state changes
// by assignment or, in place, through a machine's Apply, Undo or
// UndoWithBefore called on `current` — staging after
// mutating leaves a window where a crash (or a closed log) persists
// state the log cannot explain. In txn.Txn, the transaction-level commit
// record is the durable commit point and must be staged before any lock
// release (`releaseLocks`): releasing first would let a dependent commit
// stage its records ahead of its predecessor's decision.
//
// The analyzer walks each relevant method tracking, per path, whether a
// stage call has happened yet; a covered mutation while unstaged is
// remembered and reported if a stage call later executes on the same
// path. Mutations on paths that never stage (the REDO-only branches,
// the abort sweep) are legitimate and stay silent. Branch merges OR the
// staged flag, so a conditionally-staged prefix does not false-positive.
package stagebeforemutate

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis"
)

// Analyzer is the stagebeforemutate pass.
var Analyzer = &analysis.Analyzer{
	Name: "stagebeforemutate",
	Doc: "in recovery.UndoLog methods and txn commit/abort sweeps, the WAL " +
		"stage call must precede the store mutation (or lock release) it covers",
	Run: run,
}

// coveredFields are the UndoLog fields whose mutation must be preceded
// by a stage call on the same path.
var coveredFields = map[string]bool{"current": true, "chain": true}

// inPlaceMethods are the machine methods that change the state passed as
// their first argument in place.
var inPlaceMethods = map[string]bool{"Apply": true, "Undo": true, "UndoWithBefore": true}

func run(pass *analysis.Pass) error {
	for _, fd := range analysis.FuncDecls(pass.Files) {
		recvType := analysis.RecvTypeName(fd)
		recvName := recvIdent(fd)
		if recvName == "" {
			continue
		}
		var mut func(ast.Stmt) (token.Pos, string, bool)
		switch recvType {
		case "UndoLog":
			mut = func(s ast.Stmt) (token.Pos, string, bool) {
				return undoLogMutation(recvName, s)
			}
		case "Txn":
			mut = func(s ast.Stmt) (token.Pos, string, bool) {
				return releaseCall(recvName, s)
			}
		default:
			continue
		}
		w := &walker{pass: pass, mutation: mut}
		w.stmts(fd.Body.List, false, nil)
	}
	return nil
}

func recvIdent(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// pend is a mutation executed before any stage call on its path.
type pend struct {
	pos  token.Pos
	what string
}

type walker struct {
	pass     *analysis.Pass
	mutation func(ast.Stmt) (token.Pos, string, bool)
}

// stmts interprets a statement list. staged reports whether a stage call
// has executed on this path; pending holds unstaged mutations. Returns
// the out-state and whether the path terminated.
func (w *walker) stmts(list []ast.Stmt, staged bool, pending []pend) (bool, []pend, bool) {
	for _, s := range list {
		var term bool
		staged, pending, term = w.stmt(s, staged, pending)
		if term {
			return staged, pending, true
		}
	}
	return staged, pending, false
}

func (w *walker) stmt(s ast.Stmt, staged bool, pending []pend) (bool, []pend, bool) {
	// A stage call anywhere in this statement (expression position
	// included: `if _, err := u.log.AppendAsync(r); ...`) first flushes
	// the pending set, then marks the path staged. The scan is
	// pre-order, so a mutation statement that itself contains the stage
	// call (none exist) would report conservatively.
	if pos, ok := stagePos(w.pass, s); ok {
		for _, p := range pending {
			w.pass.Reportf(p.pos,
				"%s precedes the WAL stage call at %s: records must be staged before state mutates (recoverability)",
				p.what, w.pass.Fset.Position(pos))
		}
		pending = nil
		staged = true
	}
	if pos, what, ok := w.mutation(s); ok && !staged {
		pending = append(pending, pend{pos, what})
	}

	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, staged, pending)
	case *ast.ReturnStmt:
		return staged, nil, true
	case *ast.BranchStmt:
		return staged, pending, true
	case *ast.IfStmt:
		tS, tP, tT := w.stmts(s.Body.List, staged, clonePends(pending))
		eS, eP, eT := staged, clonePends(pending), false
		if s.Else != nil {
			eS, eP, eT = w.stmt(s.Else, staged, clonePends(pending))
		}
		switch {
		case tT && eT:
			return staged, nil, true
		case tT:
			return eS, eP, false
		case eT:
			return tS, tP, false
		default:
			return tS || eS, append(tP, eP...), false
		}
	case *ast.ForStmt:
		st, p, _ := w.stmts(s.Body.List, staged, clonePends(pending))
		return st || staged, append(pending, p...), false
	case *ast.RangeStmt:
		st, p, _ := w.stmts(s.Body.List, staged, clonePends(pending))
		return st || staged, append(pending, p...), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		outS, outP := staged, pending
		ast.Inspect(s, func(n ast.Node) bool {
			switch cl := n.(type) {
			case *ast.CaseClause:
				cs, cp, ct := w.stmts(cl.Body, staged, clonePends(pending))
				if !ct {
					outS = outS || cs
					outP = append(outP, cp...)
				}
				return false
			case *ast.CommClause:
				cs, cp, ct := w.stmts(cl.Body, staged, clonePends(pending))
				if !ct {
					outS = outS || cs
					outP = append(outP, cp...)
				}
				return false
			}
			return true
		})
		return outS, outP, false
	default:
		return staged, pending, false
	}
}

func clonePends(p []pend) []pend {
	return append([]pend(nil), p...)
}

// stagePos finds a wal.Log AppendAsync/AppendBatchAsync call directly
// inside the statement (not inside a nested block — those are walked
// recursively).
func stagePos(pass *analysis.Pass, s ast.Stmt) (token.Pos, bool) {
	var pos token.Pos
	found := false
	switch s := s.(type) {
	case *ast.ExprStmt, *ast.AssignStmt, *ast.ReturnStmt, *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // a stage inside a closure is not executed here
			}
			if call, ok := n.(*ast.CallExpr); ok && isStage(pass, call) && !found {
				pos, found = call.Pos(), true
			}
			return !found
		})
	case *ast.IfStmt:
		if s.Init != nil {
			return stagePos(pass, s.Init)
		}
	}
	return pos, found
}

func isStage(pass *analysis.Pass, call *ast.CallExpr) bool {
	if !analysis.IsMethodOf(pass.TypesInfo, call, "wal", "Log") {
		return false
	}
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	return f.Name() == "AppendAsync" || f.Name() == "AppendBatchAsync"
}

// undoLogMutation recognizes direct statements mutating the receiver's
// covered fields: assignments to u.current / u.chain[...],
// delete(u.chain, ...), and an in-place machine call on u.current — as a
// statement, on an assignment's right-hand side, or in an if statement's
// init.
func undoLogMutation(recv string, s ast.Stmt) (token.Pos, string, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if name, ok := coveredTarget(recv, lhs); ok {
				return s.Pos(), "mutation of " + name, true
			}
		}
		for _, rhs := range s.Rhs {
			if what, ok := inPlaceCall(recv, rhs); ok {
				return s.Pos(), what, true
			}
		}
	case *ast.IncDecStmt:
		if name, ok := coveredTarget(recv, s.X); ok {
			return s.Pos(), "mutation of " + name, true
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) > 0 {
				if name, ok := coveredTarget(recv, call.Args[0]); ok {
					return s.Pos(), "delete from " + name, true
				}
			}
		}
		if what, ok := inPlaceCall(recv, s.X); ok {
			return s.Pos(), what, true
		}
	case *ast.IfStmt:
		if s.Init != nil {
			return undoLogMutation(recv, s.Init)
		}
	}
	return token.NoPos, "", false
}

// inPlaceCall matches a call x.Apply(recv.current, ...), x.Undo(...) or
// x.UndoWithBefore(...): a machine changing the covered state in place.
func inPlaceCall(recv string, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !inPlaceMethods[sel.Sel.Name] {
		return "", false
	}
	name, ok := coveredTarget(recv, call.Args[0])
	if !ok || name != recv+".current" {
		return "", false
	}
	return "machine " + sel.Sel.Name + " on " + name, true
}

// coveredTarget matches recv.current, recv.chain and recv.chain[i].
func coveredTarget(recv string, e ast.Expr) (string, bool) {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !coveredFields[sel.Sel.Name] {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != recv {
		return "", false
	}
	return recv + "." + sel.Sel.Name, true
}

// releaseCall recognizes t.releaseLocks(...) statements in Txn methods:
// a release executed before the commit record is staged would publish
// state whose commit decision the log does not yet carry.
func releaseCall(recv string, s ast.Stmt) (token.Pos, string, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return token.NoPos, "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return token.NoPos, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "releaseLocks" {
		return token.NoPos, "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != recv {
		return token.NoPos, "", false
	}
	return es.Pos(), "lock release " + recv + "." + sel.Sel.Name, true
}
