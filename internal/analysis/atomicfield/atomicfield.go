// Package atomicfield forbids mixed atomic/plain access to struct
// fields.
//
// The engine publishes cross-goroutine state through atomics: the
// transaction sequence, the durable watermark, commit tickets. A field that is ever
// accessed through sync/atomic functions (atomic.LoadInt64(&x.f), ...)
// participates in a release/acquire protocol, and one plain read or
// write elsewhere silently breaks it — the race detector only catches
// the schedules that actually collide, while the lint catches the shape.
// The engine's own fields use the typed atomic.Int64 wrappers (immune by
// construction); this analyzer guards the function-style pattern the
// planned lock-free hot-path refactor will introduce.
//
// Within each package: pass 1 collects every struct field whose address
// is taken as the first argument of a sync/atomic function — either
// directly (&x.f) or through an element (&x.f[i], the sharded-histogram
// shape, which publishes the whole array field); pass 2 flags every
// other selector access to those fields — plain reads, plain writes, and
// address-taking outside sync/atomic calls.
//
// The analyzer also understands the typed atomic.Pointer[T] and the
// copy-on-write discipline built on it: a value reached through
// Pointer.Load is a published immutable snapshot, shared with every
// concurrent reader.
// Writers must copy, mutate the copy, and Store the copy — never mutate
// the loaded value in place. Within each function body the analyzer
// tracks pointers (and their dereferenced values) obtained from
// atomic.Pointer Load calls, through local aliases, and flags in-place
// mutation: stores through the loaded pointer, field writes on it, and
// map index assignment, increment, or delete on a loaded map.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the atomicfield pass.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: "a struct field accessed via sync/atomic must never be read or " +
		"written plainly elsewhere in the package, and values loaded from " +
		"atomic.Pointer must never be mutated in place (copy-on-write)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, fd := range analysis.FuncDecls(pass.Files) {
		checkCow(pass, fd.Body)
	}
	// Pass 1: fields used atomically, keyed by their types.Var, with the
	// set of &x.f selector nodes that appear inside atomic calls (these
	// are the sanctioned uses pass 2 must skip).
	atomicFields := map[*types.Var]bool{}
	sanctioned := map[*ast.SelectorExpr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				inner := ast.Unparen(un.X)
				// &x.f[i] publishes element-by-element: the array field
				// itself joins the protocol, so unwrap the index.
				if ix, ok := inner.(*ast.IndexExpr); ok {
					inner = ast.Unparen(ix.X)
				}
				sel, ok := inner.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fv := fieldVar(pass, sel); fv != nil {
					atomicFields[fv] = true
					sanctioned[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}
	// Pass 2: every other selector touching those fields is a violation.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			fv := fieldVar(pass, sel)
			if fv == nil || !atomicFields[fv] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"plain access to field %s, which is accessed with sync/atomic elsewhere in this package: "+
					"mixed atomic/plain access breaks the publication protocol",
				fv.Name())
			return true
		})
	}
	return nil
}

// Classes a tracked expression or variable can have in the CoW check.
const (
	cowPtr = "ptr" // a pointer returned by atomic.Pointer.Load
	cowVal = "val" // the value that pointer dereferences to
)

// checkCow flags in-place mutation of values loaded from an
// atomic.Pointer within one function body. Loaded pointers are tracked
// through local aliases to a fixpoint (`cur := p.Load(); m := *cur`), so
// the check survives the idiomatic two-step deref.
func checkCow(pass *analysis.Pass, body *ast.BlockStmt) {
	// Collect local variables holding a loaded pointer or its deref.
	loaded := map[*types.Var]string{}
	classify := func(e ast.Expr) string { return classifyExpr(pass, loaded, e) }
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Rhs {
				cls := classify(as.Rhs[i])
				if cls == "" {
					continue
				}
				id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok && loaded[v] != cls {
					loaded[v] = cls
					changed = true
				}
			}
			return true
		})
	}
	// A mutation target is "loaded" if it is a loaded value directly or
	// the dereference of a loaded pointer (or of a Load call inline).
	isLoadedVal := func(e ast.Expr) bool { return classify(e) == cowVal }
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"%s a value loaded from atomic.Pointer: loaded snapshots are shared with "+
				"concurrent readers — copy, mutate the copy, then Store the copy",
			what)
	}
	flagLHS := func(l ast.Expr) {
		switch l := ast.Unparen(l).(type) {
		case *ast.IndexExpr:
			if isLoadedVal(l.X) {
				report(l.Pos(), "in-place map write to")
			}
		case *ast.StarExpr:
			if classify(l.X) == cowPtr {
				report(l.Pos(), "store through")
			}
		case *ast.SelectorExpr:
			if classify(l.X) == cowPtr || isLoadedVal(l.X) {
				report(l.Pos(), "field write to")
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				flagLHS(l)
			}
		case *ast.IncDecStmt:
			flagLHS(n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" &&
				pass.TypesInfo.Uses[id] == types.Universe.Lookup("delete") && len(n.Args) > 0 {
				if isLoadedVal(n.Args[0]) {
					report(n.Pos(), "delete from")
				}
			}
		}
		return true
	})
}

// classifyExpr resolves e to cowPtr/cowVal when it is a tracked local
// variable, an inline Pointer.Load call, or a dereference of either.
func classifyExpr(pass *analysis.Pass, loaded map[*types.Var]string, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.ObjectOf(e).(*types.Var); ok {
			return loaded[v]
		}
	case *ast.CallExpr:
		if isPointerLoad(pass, e) {
			return cowPtr
		}
	case *ast.StarExpr:
		if classifyExpr(pass, loaded, e.X) == cowPtr {
			return cowVal
		}
	}
	return ""
}

// isPointerLoad reports whether the call is atomic.Pointer[T].Load.
func isPointerLoad(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	if f == nil || f.Name() != "Load" {
		return false
	}
	n := analysis.ReceiverNamed(f)
	return n != nil && n.Obj().Name() == "Pointer" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "atomic"
}

// isAtomicCall reports whether the call targets a sync/atomic function
// (LoadInt64, StoreUint64, AddInt64, CompareAndSwapPointer, ...).
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic" &&
		analysis.ReceiverNamed(f) == nil
}

// fieldVar resolves a selector to the struct field it names, or nil for
// methods, package members and non-field selections.
func fieldVar(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		v, _ := s.Obj().(*types.Var)
		return v
	}
	return nil
}
