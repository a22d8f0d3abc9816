package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// A Package is one loaded, parsed, type-checked package — the unit the
// analyzers run over.
type Package struct {
	Path      string // import path
	Name      string
	Dir       string
	GoFiles   []string // absolute paths, non-test files only
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool // listed only as a dependency of a matched package
}

// List expands patterns ("./...") into packages via `go list -deps`,
// run in dir (the module root): the matched packages and everything they
// import, each listed after its dependencies. Only the fields the loader
// needs are decoded; test files are not listed (the disciplines guard
// engine code, and test helpers deliberately exercise the forbidden
// shapes).
func List(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v: %s", patterns, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// NewImporter returns a shared types.ImporterFrom that type-checks
// dependencies from source (the container has no export data for the
// module and no proxy for x/tools; the source importer needs only GOROOT
// and the go command). It caches internally, so one importer should be
// shared across every package of a run.
func NewImporter(fset *token.FileSet) types.ImporterFrom {
	return importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
}

// Load lists, parses and type-checks the packages matched by patterns in
// the module at dir. The module's packages are type-checked once each, in
// the dependency order go list gives, and import one another from the
// packages already checked, so imports resolve in dir's module whatever
// the working directory; only the standard library goes through the
// source importer. It returns the packages the patterns matched.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := List(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{std: NewImporter(fset), checked: map[string]*types.Package{}}
	var out []*Package
	for _, lp := range listed {
		if lp.Standard || lp.Name == "" || len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := Check(fset, imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		imp.checked[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// moduleImporter resolves the module's packages from those Load has
// already type-checked and hands every other import — the standard
// library — to the source importer.
type moduleImporter struct {
	std     types.ImporterFrom
	checked map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// Check parses and type-checks one package from its file list. The
// importer resolves dependencies; fset must be the importer's FileSet.
func Check(fset *token.FileSet, imp types.ImporterFrom, path, dir string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", f, err)
		}
		syntax = append(syntax, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	name := ""
	if len(syntax) > 0 {
		name = syntax[0].Name.Name
	}
	conf := types.Config{
		Importer: srcDirImporter{imp, dir},
	}
	tpkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Name:      name,
		Dir:       dir,
		GoFiles:   files,
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// srcDirImporter routes plain Import calls through ImportFrom with the
// package's own directory, so module-relative resolution works.
type srcDirImporter struct {
	imp types.ImporterFrom
	dir string
}

func (s srcDirImporter) Import(path string) (*types.Package, error) {
	return s.imp.ImportFrom(path, s.dir, 0)
}

func (s srcDirImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if dir == "" {
		dir = s.dir
	}
	return s.imp.ImportFrom(path, dir, mode)
}
