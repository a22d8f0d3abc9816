package analysis

// The export guard: every exported package-level object and method of the
// engine's production packages must have a use in a non-test file of the
// module. A name only tests call is a test seam, and a reader of the
// package cannot tell it from the API; it belongs in a _test.go file or in
// a test-support package (internal/wal/waltest). This is a test, not a
// cclint analyzer: the analyzers run one package at a time, also as a
// go vet -vettool, so they cannot see another package's uses.

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// guardedPackages are the packages whose exports the guard checks.
var guardedPackages = []string{
	"repro/internal/adt",
	"repro/internal/wal",
	"repro/internal/locking",
	"repro/internal/checkpoint",
	"repro/internal/recovery",
	"repro/internal/sim",
	"repro/internal/txn",
	"repro/internal/obs",
	"repro/internal/history",
	"repro/internal/spec",
	"repro/internal/commute",
	"repro/internal/core",
	"repro/internal/atomicity",
	"repro/internal/histfile",
}

// weihlSpec is the reason the Section 8.2.2 specifications stay exported.
const weihlSpec = "paper artifact: a Section 8.2.2 counterexample specification, which internal/core's " +
	"Theorem 9/10 explorations and the root package's figure benchmarks build from other packages' tests"

// exportAllow lists the exports kept with no non-test use, each with its
// reason. Keys are as unusedExports reports them.
var exportAllow = map[string]string{
	"adt.NondetSpecC":  weihlSpec,
	"adt.NondetSpecD":  weihlSpec,
	"adt.PartialSpecA": weihlSpec,
	"adt.PartialSpecB": weihlSpec,
	"atomicity.DynamicAtomicSampled": "paper artifact: the sampled check of dynamic atomicity, the paper's " +
		"correctness property, which internal/txn's and internal/sim's tests run on the histories engines record",
	"checkpoint.FileStore.SetCrashHook": "crash seam: the crash sweeps of internal/recovery kill the " +
		"checkpoint store at the instant the WAL's CrashPoint fires, from another package",
	"locking.Detector.WaitCount": "wait seam: the deadlock tests of internal/txn wait until their " +
		"transactions are parked in the detector before they close a cycle",
	"obs.HistogramSnapshot.Quantile": "API: the read side of a phase histogram, how a holder of " +
		"an ObsSnapshot takes a p50 or p99 from its buckets",
	"obs.Tracer.Events": "API: the read side of the tracer, the only way to the events a sampled " +
		"run retains (Stats and KindCounts only count them)",
	"txn.Engine.RegisterValidated": "API: Register behind the Theorem 9/10 check, kept until " +
		"ROADMAP item 5 folds the check into Register itself",
	"txn.Txn.ID": "API: the engine names transactions itself, so this is how a caller maps its " +
		"*Txn to the TxnID-keyed log records, histories and restart winner sets",
}

// TestProductionExportsHaveProductionUses fails on any export of the
// guarded packages that only tests use, and on an allow-list entry that
// no longer names such an export.
func TestProductionExportsHaveProductionUses(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range guardedPackages {
		if !slices.ContainsFunc(pkgs, func(p *Package) bool { return p.Path == path }) {
			t.Errorf("guarded package %s not loaded", path)
		}
	}
	unused := unusedExports(pkgs, guardedPackages)
	for _, u := range unused {
		if _, ok := exportAllow[u.key]; !ok {
			t.Errorf("%s: %s is exported but has no use outside _test.go files: delete it, move it to a test file or to a test-support package, or allow-list it with a reason", u.pos, u.key)
		}
	}
	for key := range exportAllow {
		if !slices.ContainsFunc(unused, func(u unusedExport) bool { return u.key == key }) {
			t.Errorf("allow-list entry %s names no unused export: remove it", key)
		}
	}
}

// TestUnusedExportsFixture runs the guard over a two-package module
// written on the fly: it flags an exported func and an exported method that
// only a test calls, and neither a method whose one use is satisfying an
// interface nor an exported method of an unexported type.
func TestUnusedExportsFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"dev/dev.go": `package dev

type Dev struct{ n int }

func New() *Dev { return &Dev{} }

func (d *Dev) Used() int { return d.n }

func (d *Dev) TestOnly() int { return d.n }

func (d *Dev) Sync() error { return nil }

func Helper() {}

type unexported struct{}

func (unexported) Exported() {}
`,
		"dev/dev_test.go": `package dev

import "testing"

func TestDev(t *testing.T) { Helper(); New().TestOnly() }
`,
		"user/user.go": `package user

import "fixture/dev"

type syncer interface{ Sync() error }

func Run() error {
	d := dev.New()
	_ = d.Used()
	var s syncer = d
	return s.Sync()
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unusedExports(pkgs, []string{"fixture/dev"}) {
		got = append(got, u.key)
	}
	want := []string{"dev.Dev.TestOnly", "dev.Helper"}
	if !slices.Equal(got, want) {
		t.Fatalf("unused exports = %v, want %v", got, want)
	}
}

// unusedExport is one export with no non-test use.
type unusedExport struct {
	key string // name.Ident or name.Type.Method, by package name
	pos string
}

// unusedExports returns, sorted by key, the exported package-level objects
// and the exported methods of exported types declared in the packages at
// paths that no loaded (non-test) file uses. A use is any reference other
// than a method's receiver type. A method of a concrete type also counts as
// used when the type implements an interface, declared anywhere in the
// loaded packages or their imports, that has the method.
//
// Objects are matched by package path and name, the keys the allow-list
// uses.
func unusedExports(pkgs []*Package, paths []string) []unusedExport {
	used := map[string]bool{}
	for _, p := range pkgs {
		recvIdents := map[*ast.Ident]bool{}
		for _, f := range p.Syntax {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvIdents[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.TypesInfo.Uses {
			if !recvIdents[id] {
				if key := objectKey(obj); key != "" {
					used[key] = true
				}
			}
		}
	}
	ifaces := interfaces(pkgs)
	var out []unusedExport
	for _, p := range pkgs {
		if !slices.Contains(paths, p.Path) {
			continue
		}
		report := func(obj types.Object) {
			if key := objectKey(obj); !used[key] {
				out = append(out, unusedExport{key: key[strings.LastIndex(key, "/")+1:], pos: p.Fset.Position(obj.Pos()).String()})
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !obj.Exported() || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !satisfiesInterface(named, m, ifaces) {
					report(m)
				}
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						report(m)
					}
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b unusedExport) int { return strings.Compare(a.key, b.key) })
	return out
}

// objectKey names a package-level object as path.Name and a method as
// path.Type.Method (an interface's methods under the interface's name),
// where path is the package's import path; it returns "" for anything else
// (locals, fields, builtins).
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		recv := f.Type().(*types.Signature).Recv()
		if recv != nil {
			owner := recvOwner(recv)
			if owner == "" {
				return ""
			}
			return f.Pkg().Path() + "." + owner + "." + f.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvOwner returns the name of the type declaring a method: the receiver's
// named type, or the named interface whose method set holds it.
func recvOwner(recv *types.Var) string {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Name()
	}
	return ""
}

// interfaces collects every named interface with methods declared in the
// loaded packages or anything they import, plus error.
func interfaces(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return out
}

// satisfiesInterface reports whether m is the method by which named (or a
// pointer to it) implements one of ifaces. Signatures are compared as
// strings qualified by package path.
func satisfiesInterface(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if _, ok := named.Underlying().(*types.Interface); ok {
		return false
	}
	mset := types.NewMethodSet(types.NewPointer(named))
	have := func(f *types.Func) bool {
		for i := 0; i < mset.Len(); i++ {
			o := mset.At(i).Obj()
			if o.Name() == f.Name() && (f.Exported() || o.Pkg().Path() == f.Pkg().Path()) {
				return signatureKey(o.Type().(*types.Signature)) == signatureKey(f.Type().(*types.Signature))
			}
		}
		return false
	}
	for _, it := range ifaces {
		hasM := false
		all := true
		for i := 0; i < it.NumMethods() && all; i++ {
			f := it.Method(i)
			hasM = hasM || f.Name() == m.Name()
			all = have(f)
		}
		if hasM && all {
			return true
		}
	}
	return false
}

// signatureKey renders a signature's parameter and result types, without
// names or receiver, qualified by package path.
func signatureKey(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}
