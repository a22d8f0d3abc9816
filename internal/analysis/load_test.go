package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// TestLoadModulePackages proves the stdlib-only loader can list, parse
// and type-check real engine packages (including their std and
// module-internal imports) — the foundation every analyzer stands on.
func TestLoadModulePackages(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := Load(root, []string{"./internal/wal", "./internal/spec"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	byName := map[string]*Package{}
	for _, p := range pkgs {
		byName[p.Name] = p
		if p.Types == nil || p.TypesInfo == nil || len(p.Syntax) == 0 {
			t.Fatalf("package %s loaded without types or syntax", p.Path)
		}
	}
	wal, ok := byName["wal"]
	if !ok {
		t.Fatal("internal/wal not loaded")
	}
	if wal.Types.Scope().Lookup("Log") == nil {
		t.Fatal("wal.Log not in scope: type-checking did not resolve the package")
	}
}

// TestCheckSharedImporter proves one importer instance serves several
// Check calls over one FileSet (the shape Load and analysistest share).
func TestCheckSharedImporter(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	imp := NewImporter(fset)
	dir := filepath.Join(root, "internal", "spec")
	pkg, err := Check(fset, imp, "repro/internal/spec", dir,
		[]string{filepath.Join(dir, "spec.go"), filepath.Join(dir, "automaton.go")})
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Scope().Lookup("Op") == nil {
		t.Fatal("spec.Op not found after Check")
	}
}
