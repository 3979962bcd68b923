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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Name      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json -deps` output the
// loader needs. DepOnly marks packages pulled in as dependencies of
// the requested patterns rather than matching them directly; Standard
// marks the standard library.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
}

// loader enumerates and lazily type-checks packages. In-module
// packages are checked at most once each and served to importers from
// the same table, so a function object observed while analyzing an
// importing package is pointer-identical to the one observed while
// analyzing its home package — the property the facts store keys on.
// Standard-library imports fall through to go/importer's source
// importer.
type loader struct {
	fset   *token.FileSet
	listed map[string]*listedPackage // module packages by import path
	order  []string                  // module packages, dependency-first
	roots  []string                  // packages matching the requested patterns
	pkgs   map[string]*Package       // lazily checked module packages
	std    types.ImporterFrom        // stdlib fallback
}

// newLoader runs `go list -json -deps` over patterns (in dir, ""
// meaning the current directory) and indexes the module's packages in
// dependency-first order. Nothing is type-checked yet.
func newLoader(dir string, patterns ...string) (*loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	l := &loader{
		fset:   token.NewFileSet(),
		listed: make(map[string]*listedPackage),
		pkgs:   make(map[string]*Package),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		p := lp
		l.listed[p.ImportPath] = &p
		if !p.DepOnly {
			l.roots = append(l.roots, p.ImportPath)
		}
	}
	sort.Strings(l.roots)
	l.order = topoOrder(l.listed)
	return l, nil
}

// topoOrder sorts the module packages dependency-first (a package
// follows everything it imports), breaking ties by import path so the
// order is deterministic.
func topoOrder(listed map[string]*listedPackage) []string {
	paths := make([]string, 0, len(listed))
	for p := range listed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(string)
	visit = func(path string) {
		if state[path] != 0 {
			return
		}
		state[path] = 1
		lp := listed[path]
		deps := append([]string(nil), lp.Imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if _, inModule := listed[dep]; inModule {
				visit(dep)
			}
		}
		state[path] = 2
		order = append(order, path)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}

// Import implements types.Importer by serving module packages from the
// loader's own table (type-checking them on demand) and everything
// else from the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.listed[path]; ok {
		pkg, err := l.pkg(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// pkg returns the type-checked module package, checking it (and,
// recursively, its module dependencies) on first demand.
func (l *loader) pkg(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	lp, ok := l.listed[path]
	if !ok {
		return nil, fmt.Errorf("package %s is not part of the loaded module graph", path)
	}
	files := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, f)
	}
	pkg, err := check(l.fset, l, lp.ImportPath, lp.Dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Load enumerates the packages matching patterns with `go list` (run
// in dir, "" meaning the current directory) and type-checks each from
// source, dependency-first. Test files are excluded, matching the
// linter's scope: shipped code. Standard-library imports resolve
// through go/importer's source importer; module-internal imports are
// served from the same load, so cross-package objects are canonical.
func Load(dir string, patterns ...string) ([]*Package, error) {
	l, err := newLoader(dir, patterns...)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(l.roots))
	for _, path := range l.order {
		if lp := l.listed[path]; lp.DepOnly {
			continue
		}
		pkg, err := l.pkg(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks every .go file directly inside dir as
// one package; the test-fixture loader (testdata packages are invisible
// to `go list`, which is exactly why the fixtures' deliberate
// violations never break the ordinary build).
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	return check(fset, imp, "fixture/"+filepath.Base(dir), dir, files)
}

// check parses the named files and type-checks them as one package.
func check(fset *token.FileSet, imp types.Importer, pkgPath, dir string, filenames []string) (*Package, error) {
	var syntax []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", fn, err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := conf.Check(pkgPath, fset, syntax, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-check %s:\n  %s", pkgPath, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Name:      tpkg.Name(),
		Dir:       dir,
		Fset:      fset,
		Files:     syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
