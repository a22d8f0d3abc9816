// Package detreplay keeps restart and history verification
// deterministic.
//
// PR 6's parallel restart is proven by a bit-identical equivalence test:
// the same crash-torn log must recover to the same state, winner set and
// appended records at every parallelism. That proof only means something
// if the restart path computes from the log alone — a time.Now feeding
// replayed state, a math/rand choice, or a map-order iteration leaking
// into an output slice would make two restarts of one log disagree.
// detreplay flags, in the packages it is pointed at (internal/recovery
// and internal/history):
//
//   - calls into math/rand (any function);
//   - calls to time.Now / time.Since (wall-clock-only uses, such as the
//     RestartStats timing fields, carry a //lint:ignore detreplay
//     justification — the point is that each one is a visible decision);
//   - range-over-map loops that append to a slice which is not
//     subsequently passed to a sort call in the same function (the
//     map-order-into-output shape; map-to-map folds stay silent).
package detreplay

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the detreplay pass.
var Analyzer = &analysis.Analyzer{
	Name: "detreplay",
	Doc: "restart and history merge/verification code must be deterministic: " +
		"no time.Now/math/rand, and no map-iteration order feeding output " +
		"without a sort",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, fd := range analysis.FuncDecls(pass.Files) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if analysis.IsPkgFunc(pass.TypesInfo, call, "time", "Now", "Since") {
				f := analysis.CalleeFunc(pass.TypesInfo, call)
				pass.Reportf(call.Pos(),
					"time.%s in replay/verification code: restart must be a function of the log alone",
					f.Name())
			}
			if f := analysis.CalleeFunc(pass.TypesInfo, call); f != nil &&
				f.Pkg() != nil && strings.HasPrefix(f.Pkg().Path(), "math/rand") {
				pass.Reportf(call.Pos(),
					"rand.%s in replay/verification code: restart must be deterministic",
					f.Name())
			}
			return true
		})
		checkMapOrder(pass, fd.Body)
	}
	return nil
}

// checkMapOrder flags `for k := range m` (m a map) whose body appends to
// a slice variable that no later statement in the function passes to a
// sort call. Appending under map order and sorting afterwards is the
// discipline the engine uses (restart's loser sweep collects, then
// slices.Sort); appending without the sort is the bug.
func checkMapOrder(pass *analysis.Pass, body *ast.BlockStmt) {
	// Collect, per function, every slice variable that is an argument of
	// a call whose callee name contains "sort" (sort.Slice, sort.Strings,
	// slices.Sort, a named helper such as sortTxnIDs...).
	sorted := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					sorted[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		// Inside the loop body: `s = append(s, ...)` where s is never
		// sorted in this function.
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				return true
			}
			lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[lhs]
			if obj == nil {
				obj = pass.TypesInfo.Defs[lhs]
			}
			if obj == nil || sorted[obj] {
				return true
			}
			pass.Reportf(as.Pos(),
				"append to %s under map-iteration order without a later sort: "+
					"map order would leak into replay/verification output", lhs.Name)
			return true
		})
		return true
	})
}
