// Package analysis is thermlint: a suite of project-specific static
// analyzers that machine-check the repo's headline invariants —
// deterministic hot paths, a closed metric-name registry, registered
// fault points, context-aware blocking, and lock hygiene.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Reportf, testdata fixtures with `// want`
// expectations) but is reimplemented on the standard library alone:
// packages are enumerated with `go list -json` and type-checked through
// go/importer's source importer, so the linter builds and runs with no
// module dependencies beyond the Go toolchain itself.
//
// Analyzers are configured in-source through directive comments:
//
//	//thermlint:deterministic        marks a package as declared-deterministic
//	//thermlint:wallclock -- why     allows one wall-clock read (time.Now/Since/Until)
//	//thermlint:unordered -- why     allows one order-insensitive map iteration
//	//thermlint:blocking -- why      allows one context-blind blocking operation
//	//thermlint:locked -- why        allows one blocking operation under a mutex
//	//thermlint:metricnames          marks a const block as the metric-name registry
//	//thermlint:metricsdoc           marks a function whose map keys must be registered
//	//thermlint:faultpoints          marks a const block as the fault-point registry
//	//thermlint:goroutines           opts a package into goroutine-leak proving
//	//thermlint:goroutine -- why     allows one unproven goroutine spawn
//	//thermlint:timer -- why         allows one raw time.Timer/Ticker/Sleep/After
//	//thermlint:callers f g          pins a func's uses to inside f or g (acctid)
//	//thermlint:identity merge: l=a+b  declares a metrics-merge identity (acctid)
//	//thermlint:metricsmerge         marks a func as a linear metrics-doc merge
//
// Line directives (wallclock, unordered, blocking, locked, goroutine,
// timer) attach to the line they trail or the line
// immediately below when they stand alone; the `-- why` justification
// is required reading for reviewers, not parsed.
//
// Since v2 the engine is whole-program: packages load dependency-first
// over `go list -json -deps`, analyzers export typed Facts about
// package-level functions that importing packages consume (see
// facts.go). Run the suite with `go run ./cmd/thermlint ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-line invariant statement shown by -list.
	Doc string
	// Run reports the analyzer's findings through pass.Reportf.
	Run func(*Pass) error
}

// TextEdit is one byte-offset replacement inside a source file; the
// unit of a suggested fix applied by `thermlint -fix`.
type TextEdit struct {
	File  string `json:"file"`
	Start int    `json:"start"` // byte offset, inclusive
	End   int    `json:"end"`   // byte offset, exclusive
	New   string `json:"new"`
}

// Diagnostic is one finding, positioned in the analyzed source. Fixes,
// when present, are a mechanical rewrite that resolves the finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Fixes    []TextEdit
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	dirs   *directiveIndex
	report func(Diagnostic)
	facts  *factStore
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records a diagnostic at pos carrying a suggested fix.
func (p *Pass) ReportFix(pos token.Pos, fixes []TextEdit, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fixes:    fixes,
	})
}

// Offset returns the byte offset of pos inside its file, for building
// TextEdits.
func (p *Pass) Offset(pos token.Pos) int {
	return p.Fset.Position(pos).Offset
}

// ExportObjectFact associates fact with obj — a package-level function
// or method of the package under analysis — for importing packages to
// read back with ImportObjectFact. See facts.go.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.export(p.Analyzer.Name, obj, fact)
}

// ImportObjectFact copies the fact of ptr's type previously exported
// for obj (by this analyzer, in this or any dependency package) into
// ptr, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.facts.importInto(p.Analyzer.Name, obj, ptr)
}

// Allowed reports whether a line directive named name suppresses a
// finding at pos: the directive trails the offending line or stands
// alone on the line above it.
func (p *Pass) Allowed(pos token.Pos, name string) bool {
	return p.dirs.allowedAt(p.Fset.Position(pos), name)
}

// PackageMarked reports whether any file of the package carries the
// package-scope directive name (e.g. "deterministic").
func (p *Pass) PackageMarked(name string) bool {
	return p.dirs.packageHas(name)
}

// DeclMarked reports whether a declaration's doc comment carries the
// directive name (e.g. "metricnames" on a const block, "metricsdoc" on
// a function).
func DeclMarked(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if dn, ok := parseDirective(c.Text); ok && dn == name {
			return true
		}
	}
	return false
}

// TypeOf returns the type of expr, or nil when untyped.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(expr)
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for indirect calls, conversions,
// and builtins.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if fn, ok := p.TypesInfo.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (through any import alias).
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	fn := p.CalleeFunc(call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// IsMethod reports whether call invokes a method named name whose
// receiver's named type is pkgPath.typeName (value or pointer).
func (p *Pass) IsMethod(call *ast.CallExpr, pkgPath, typeName, name string) bool {
	fn := p.CalleeFunc(call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// directiveIndex maps //thermlint: comment lines to the code they
// govern. A directive applies to its own source line and the line
// below, which covers both trailing and standalone placements.
type directiveIndex struct {
	// perFile: filename -> line -> directive names present.
	perFile map[string]map[int]map[string]bool
	pkg     map[string]bool
}

// parseDirective extracts the name from a "//thermlint:name ..."
// comment; ok is false for every other comment.
func parseDirective(text string) (string, bool) {
	const prefix = "//thermlint:"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

func buildDirectiveIndex(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{
		perFile: make(map[string]map[int]map[string]bool),
		pkg:     make(map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				idx.pkg[name] = true
				pos := fset.Position(c.Slash)
				lines := idx.perFile[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx.perFile[pos.Filename] = lines
				}
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					if lines[ln] == nil {
						lines[ln] = make(map[string]bool)
					}
					lines[ln][name] = true
				}
			}
		}
	}
	return idx
}

func (idx *directiveIndex) allowedAt(pos token.Position, name string) bool {
	return idx.perFile[pos.Filename][pos.Line][name]
}

func (idx *directiveIndex) packageHas(name string) bool { return idx.pkg[name] }

// RunAnalyzers applies each analyzer to each package and returns every
// diagnostic, sorted by position then analyzer name. Packages must be
// in dependency order when analyzers consume cross-package facts: the
// facts store is shared across the whole run, so facts exported while
// analyzing a dependency are visible to its importers.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := newFactStore()
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, err := runOne(pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// runOne applies the analyzers to a single package against a shared
// facts store and returns its diagnostics, unsorted.
func runOne(pkg *Package, analyzers []*Analyzer, facts *factStore) ([]Diagnostic, error) {
	dirs := buildDirectiveIndex(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			dirs:      dirs,
			report:    func(d Diagnostic) { diags = append(diags, d) },
			facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, k int) bool {
		a, b := diags[i], diags[k]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the thermlint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, MetricKeys, FaultPoints, CtxFlow, LockScope,
		GoLeak, AcctID, ClockSeam,
	}
}
