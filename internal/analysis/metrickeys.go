package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// MetricKeys closes the metric namespace: in packages that declare a
// //thermlint:metricnames const registry, every stats counter/histogram
// name and every key of the /metrics document builder must be one of
// the registered constants. A typo'd or dynamically built key would
// silently break /metrics reconciliation (the submitted ==
// hits+completed+failed+canceled+rejected identity loadgen.ChaosCheck asserts),
// so raw string literals at those sites are errors even when their
// value happens to match.
var MetricKeys = &Analyzer{
	Name: "metrickeys",
	Doc:  "metric names must be constants from the //thermlint:metricnames registry",
	Run:  runMetricKeys,
}

const statsPkgPath = "thermalherd/internal/stats"

func runMetricKeys(pass *Pass) error {
	registry := collectStringRegistry(pass, "metricnames")
	if registry == nil {
		return nil // package declares no metric-name registry; out of scope
	}
	fixer := newRegistryFixer(pass, registry)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			docChecked := DeclMarked(fn.Doc, "metricsdoc")
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if pass.IsPkgFunc(n, statsPkgPath, "NewHistogram") && len(n.Args) > 0 {
						checkMetricName(pass, registry, fixer, n.Args[0], "stats.NewHistogram name")
					}
				case *ast.CompositeLit:
					if docChecked {
						checkMetricsDocLit(pass, registry, fixer, n)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkMetricsDocLit validates every key of a string-keyed map literal
// inside a //thermlint:metricsdoc function.
func checkMetricsDocLit(pass *Pass, registry map[string]string, fixer *registryFixer, lit *ast.CompositeLit) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return
	}
	if basic, ok := m.Key().Underlying().(*types.Basic); !ok || basic.Kind() != types.String {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		checkMetricName(pass, registry, fixer, kv.Key, "metrics document key")
	}
}

// checkMetricName requires expr to be a named constant from the
// registry, or (for histogram name prefixes like "latency_ms_"+kind) a
// concatenation whose leftmost operand is one. Raw string literals get
// a suggested fix: substitute the registered constant for the value, or
// mint a new registry constant when none exists.
func checkMetricName(pass *Pass, registry map[string]string, fixer *registryFixer, expr ast.Expr, site string) {
	expr = ast.Unparen(expr)
	if bin, ok := expr.(*ast.BinaryExpr); ok {
		// A dynamic suffix is fine as long as the prefix is registered.
		checkMetricName(pass, registry, fixer, bin.X, site)
		return
	}
	name, val, ok := constIdent(pass, expr)
	if !ok {
		if fixes := fixer.fixLiteral(expr); fixes != nil {
			pass.ReportFix(expr.Pos(), fixes, "%s must be a //thermlint:metricnames registry constant, not %s", site, describeExpr(expr))
		} else {
			pass.Reportf(expr.Pos(), "%s must be a //thermlint:metricnames registry constant, not %s", site, describeExpr(expr))
		}
		return
	}
	if _, registered := registry[name]; !registered {
		pass.Reportf(expr.Pos(), "%s uses constant %s (%q) which is not in the //thermlint:metricnames registry", site, name, val)
	}
}

// constIdent resolves expr to a named string constant, returning its
// name and value.
func constIdent(pass *Pass, expr ast.Expr) (name, val string, ok bool) {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", "", false
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Const)
	if !ok || obj.Val().Kind() != constant.String {
		return "", "", false
	}
	return obj.Name(), constant.StringVal(obj.Val()), true
}

func describeExpr(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.BasicLit:
		return fmt.Sprintf("the raw literal %s", e.Value)
	case *ast.Ident:
		return fmt.Sprintf("identifier %s", e.Name)
	default:
		return "a dynamic expression"
	}
}

// registryFixer builds suggested fixes for raw metric-name literals:
// substitute the registry constant that already holds the value, or
// mint one — an insertion into the registry const block plus the
// substitution.
type registryFixer struct {
	pass    *Pass
	byValue map[string]string // registry value -> const name
	insert  token.Pos         // before the registry block's closing paren
}

func newRegistryFixer(pass *Pass, registry map[string]string) *registryFixer {
	f := &registryFixer{pass: pass, byValue: make(map[string]string, len(registry))}
	for name, val := range registry {
		f.byValue[val] = name
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if ok && DeclMarked(gd.Doc, "metricnames") && gd.Rparen.IsValid() {
				f.insert = gd.Rparen
				return f
			}
		}
	}
	return f
}

// fixLiteral returns edits resolving a raw string-literal metric name,
// or nil when expr is not a plain string literal.
func (f *registryFixer) fixLiteral(expr ast.Expr) []TextEdit {
	lit, ok := expr.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	val, err := strconv.Unquote(lit.Value)
	if err != nil {
		return nil
	}
	file := f.pass.Fset.Position(lit.Pos()).Filename
	if name, ok := f.byValue[val]; ok {
		return []TextEdit{{File: file, Start: f.pass.Offset(lit.Pos()), End: f.pass.Offset(lit.End()), New: name}}
	}
	if !f.insert.IsValid() {
		return nil
	}
	name := mintConstName(val)
	if name == "" {
		return nil
	}
	f.byValue[val] = name // later literals with the same value reuse it
	regFile := f.pass.Fset.Position(f.insert).Filename
	return []TextEdit{
		{File: regFile, Start: f.pass.Offset(f.insert), End: f.pass.Offset(f.insert),
			New: "\t" + name + " = " + strconv.Quote(val) + "\n"},
		{File: file, Start: f.pass.Offset(lit.Pos()), End: f.pass.Offset(lit.End()), New: name},
	}
}

// mintConstName derives a registry constant name from a dotted wire
// key: "jobs.lost" -> metricJobsLost.
func mintConstName(val string) string {
	var sb strings.Builder
	sb.WriteString("metric")
	upper := true
	for _, r := range val {
		switch {
		case r >= 'a' && r <= 'z':
			if upper {
				r -= 'a' - 'A'
				upper = false
			}
			sb.WriteRune(r)
		case r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			sb.WriteRune(r)
			upper = false
		default:
			upper = true // separator: next letter starts a word
		}
	}
	if sb.Len() == len("metric") {
		return ""
	}
	return sb.String()
}

// collectStringRegistry gathers the string constants of every const
// block annotated with the given decl directive, reporting duplicate
// values (two registered names for one wire key is a reconciliation
// bug waiting to happen). Returns nil when the package declares no
// such block.
func collectStringRegistry(pass *Pass, directive string) map[string]string {
	var registry map[string]string
	byValue := make(map[string]string)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || !DeclMarked(gd.Doc, directive) {
				continue
			}
			if registry == nil {
				registry = make(map[string]string)
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, nameID := range vs.Names {
					obj, ok := pass.TypesInfo.Defs[nameID].(*types.Const)
					if !ok || obj.Val().Kind() != constant.String {
						pass.Reportf(nameID.Pos(), "//thermlint:%s registry entry %s is not a string constant", directive, nameID.Name)
						continue
					}
					val := constant.StringVal(obj.Val())
					registry[obj.Name()] = val
					if prev, dup := byValue[val]; dup {
						pass.Reportf(nameID.Pos(), "registry constants %s and %s share the value %q", prev, obj.Name(), val)
					}
					byValue[val] = obj.Name()
				}
			}
		}
	}
	return registry
}
