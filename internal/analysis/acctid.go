package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// AcctID keeps counter accounting identities true by the shape of the
// code. It has two checks.
//
// A //thermlint:callers directive on a function declaration pins where
// that function may be used: every reference to it in its package must
// sit inside one of the functions the directive names (by declared
// name, so a method is named without its receiver), and every name must
// be a function of the package:
//
//	//thermlint:callers settle admit
//	func (m *metrics) settled(tenant string, o outcome)
//
// When identity counters move only through helpers that count both
// sides in one step, or one side from a few pinned callers, the
// identity holds wherever those callers run; runtime ledger tests check
// the numbers.
//
// A merge identity puts the identity over metric key strings:
//
//	//thermlint:identity merge: jobs.submitted = cache.hits + jobs.completed + jobs.failed
//
// It requires the package to mark its metrics-merging function
// //thermlint:metricsmerge and checks it preserves linearity: it must
// not special-case any identity key string and must not combine numeric
// leaves with anything but +. A structural sum of per-node documents
// then preserves every per-node identity.
var AcctID = &Analyzer{
	Name: "acctid",
	Doc:  "pinned counter helpers are used only by their named callers; metrics merges are linear",
	Run:  runAcctID,
}

// identityDecl is one parsed //thermlint:identity directive.
type identityDecl struct {
	owner string
	lhs   string
	terms []string
	pos   token.Pos
}

func runAcctID(pass *Pass) error {
	checkCallers(pass)
	for _, decl := range parseIdentityDecls(pass) {
		if decl.owner != "merge" {
			pass.Reportf(decl.pos, "identity owner %q is not checked: only \"merge\" identities are; pin counter helpers with //thermlint:callers", decl.owner)
			continue
		}
		checkMergeIdentity(pass, decl)
	}
	return nil
}

// checkCallers enforces every //thermlint:callers directive in the
// package: each use of a pinned function must sit inside a function
// the directive names, and each named function must exist.
func checkCallers(pass *Pass) {
	type pin struct {
		fd    *ast.FuncDecl
		names []string
		pos   token.Pos
	}
	var pins []pin
	declared := make(map[string]bool)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[fd.Name.Name] = true
				if names, pos, ok := callersDirective(fd.Doc); ok {
					pins = append(pins, pin{fd, names, pos})
				}
			}
		}
	}
	allowed := make(map[types.Object][]string, len(pins))
	for _, p := range pins {
		if len(p.names) == 0 {
			pass.Reportf(p.pos, "callers directive on %s names no function", p.fd.Name.Name)
		}
		for _, n := range p.names {
			if !declared[n] {
				pass.Reportf(p.pos, "callers directive on %s names %s, which is not a function of this package", p.fd.Name.Name, n)
			}
		}
		allowed[pass.TypesInfo.Defs[p.fd.Name]] = p.names
	}
	if len(allowed) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			enclosing := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				enclosing = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				names, pinned := allowed[pass.TypesInfo.Uses[id]]
				if !pinned || slices.Contains(names, enclosing) {
					return true
				}
				where := "at package level"
				if enclosing != "" {
					where = "in " + enclosing
				}
				pass.Reportf(id.Pos(), "%s used %s; //thermlint:callers allows it only in %s", id.Name, where, strings.Join(names, ", "))
				return true
			})
		}
	}
}

// callersDirective returns the function names of a //thermlint:callers
// directive in doc and the directive's position; ok is false when doc
// carries none. A trailing "-- why" or comment is not a name.
func callersDirective(doc *ast.CommentGroup) (names []string, pos token.Pos, ok bool) {
	if doc == nil {
		return nil, token.NoPos, false
	}
	for _, c := range doc.List {
		if dn, isDir := parseDirective(c.Text); isDir && dn == "callers" {
			body, _, _ := strings.Cut(strings.TrimPrefix(c.Text, "//thermlint:callers"), "//")
			body, _, _ = strings.Cut(body, "--")
			return strings.Fields(body), c.Pos(), true
		}
	}
	return nil, token.NoPos, false
}

// parseIdentityDecls extracts every //thermlint:identity directive in
// the package, reporting malformed ones.
func parseIdentityDecls(pass *Pass) []identityDecl {
	const prefix = "//thermlint:identity "
	var decls []identityDecl
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, prefix)
				if i := strings.Index(body, "//"); i >= 0 {
					body = body[:i] // trailing comment after the identity
				}
				body = strings.TrimSpace(body)
				owner, rest, ok := strings.Cut(body, ":")
				if !ok {
					pass.Reportf(c.Pos(), "malformed identity directive: want \"Owner: lhs = a + b\"")
					continue
				}
				lhs, sum, ok := strings.Cut(rest, "=")
				if !ok {
					pass.Reportf(c.Pos(), "malformed identity directive: missing \"=\"")
					continue
				}
				d := identityDecl{
					owner: strings.TrimSpace(owner),
					lhs:   strings.TrimSpace(lhs),
					pos:   c.Pos(),
				}
				for _, t := range strings.Split(sum, "+") {
					if t = strings.TrimSpace(t); t != "" {
						d.terms = append(d.terms, t)
					}
				}
				if d.owner == "" || d.lhs == "" || len(d.terms) == 0 {
					pass.Reportf(c.Pos(), "malformed identity directive: want \"Owner: lhs = a + b\"")
					continue
				}
				decls = append(decls, d)
			}
		}
	}
	return decls
}

// checkMergeIdentity verifies the merge-mode identity: the package's
// //thermlint:metricsmerge function(s) must treat every document key
// uniformly (no identity key string appears in the body) and combine
// numeric leaves linearly (only +), so a structural sum of per-node
// documents preserves each node's identity.
func checkMergeIdentity(pass *Pass, decl identityDecl) {
	keys := map[string]bool{decl.lhs: true}
	for _, t := range decl.terms {
		keys[t] = true
	}
	found := false
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !DeclMarked(fd.Doc, "metricsmerge") {
				continue
			}
			found = true
			checkMergeFunc(pass, fd, keys)
		}
	}
	if !found {
		pass.Reportf(decl.pos, "merge identity declared but no function is marked //thermlint:metricsmerge")
	}
}

func checkMergeFunc(pass *Pass, fd *ast.FuncDecl, keys map[string]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind != token.STRING {
				return true
			}
			if s, err := strconv.Unquote(n.Value); err == nil && keys[s] {
				pass.Reportf(n.Pos(), "metrics merge special-cases identity key %q; merges must treat all keys uniformly to preserve the accounting identity", s)
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.SUB, token.MUL, token.QUO, token.REM:
				if t := pass.TypeOf(n.X); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
						pass.Reportf(n.Pos(), "non-linear %q on numeric leaves in a metrics merge; only + preserves the accounting identity under structural sum", n.Op)
					}
				}
			}
		}
		return true
	})
}
