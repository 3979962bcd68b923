package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// AcctID proves counter accounting identities at compile time. A
// package declares an identity over a counter owner:
//
//	//thermlint:identity metrics: submitted = cacheHits + completed + failed + canceled + rejected
//	//thermlint:identity tcField: tcSubmitted = tcHits + tcCompleted + tcFailed + tcCanceled + tcRejected
//	//thermlint:identity merge: jobs.submitted = cache.hits + jobs.completed + jobs.failed + jobs.canceled + jobs.rejected
//
// The owner names a package-level type. A struct owner puts the
// identity over its fields: an increment site is `&x.field` passed to a
// call, or `x.field.Inc()/.Add()`. A non-struct owner (an enum) puts it
// over that type's constants: a site is the constant passed as a call
// argument. The literal owner `merge` puts the identity over metric key
// strings and checks //thermlint:metricsmerge functions instead (see
// below).
//
// For field and const identities the analyzer walks every function,
// statement by statement with branch cloning: a left-side increment
// opens an obligation; each return, continue, and loop-iteration end
// requires the obligation settled by exactly one right-side increment
// on every path. Settlement may also be deferred across functions under
// an explicit discipline: right-side increments outside any obligation
// must sit in the then-branch of an `if guard()` (or after an
// `if !guard() { return/continue }`) where guard is a function marked
// //thermlint:settleonce — an exactly-once state transition such as a
// CAS. Returns that intentionally leave an obligation open (the
// 202-accepted handoff to a worker) carry //thermlint:handoff -- why.
//
// A merge identity requires the package to mark its metrics-merging
// function //thermlint:metricsmerge and checks it preserves linearity:
// it must not special-case any identity key string and must not combine
// numeric leaves with anything but +. A structural sum of per-node
// documents then preserves every per-node identity.
var AcctID = &Analyzer{
	Name: "acctid",
	Doc:  "declared counter identities hold on every control-flow path",
	Run:  runAcctID,
}

// settleOnceFact marks a function as an exactly-once settlement guard,
// exported so importing packages can use guards cross-package.
type settleOnceFact struct {
	Guard bool `json:"guard"`
}

func (*settleOnceFact) AFact() {}

// identityDecl is one parsed //thermlint:identity directive.
type identityDecl struct {
	owner string
	lhs   string
	terms []string
	pos   token.Pos
}

// acctIdentity is a resolved field- or const-mode identity: the object
// sets that count as left- and right-side increment sites.
type acctIdentity struct {
	decl identityDecl
	lhs  map[types.Object]bool
	rhs  map[types.Object]bool
}

func runAcctID(pass *Pass) error {
	// Settlement guards: local //thermlint:settleonce functions, plus
	// the exported fact for importers.
	guards := make(map[*types.Func]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !DeclMarked(fd.Doc, "settleonce") {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				guards[fn] = true
				pass.ExportObjectFact(fn, &settleOnceFact{Guard: true})
			}
		}
	}

	for _, decl := range parseIdentityDecls(pass) {
		if decl.owner == "merge" {
			checkMergeIdentity(pass, decl)
			continue
		}
		id, ok := resolveIdentity(pass, decl)
		if !ok {
			continue // resolution errors already reported
		}
		w := &acctWalker{pass: pass, id: id, guards: guards}
		for _, file := range pass.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					w.checkFunc(fd)
				}
			}
		}
	}
	return nil
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

// resolveIdentity maps an identity's member names to their objects:
// fields of a struct owner, or constants of an enum owner.
func resolveIdentity(pass *Pass, decl identityDecl) (*acctIdentity, bool) {
	obj := pass.Pkg.Scope().Lookup(decl.owner)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		pass.Reportf(decl.pos, "identity owner %q is not a package-level type", decl.owner)
		return nil, false
	}
	id := &acctIdentity{
		decl: decl,
		lhs:  make(map[types.Object]bool),
		rhs:  make(map[types.Object]bool),
	}
	member := func(name string) types.Object {
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Name() == name {
					return f
				}
			}
			pass.Reportf(decl.pos, "identity member %q is not a field of %s", name, decl.owner)
			return nil
		}
		c, ok := pass.Pkg.Scope().Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), tn.Type()) {
			pass.Reportf(decl.pos, "identity member %q is not a %s constant", name, decl.owner)
			return nil
		}
		return c
	}
	ok = true
	if m := member(decl.lhs); m != nil {
		id.lhs[m] = true
	} else {
		ok = false
	}
	for _, t := range decl.terms {
		if m := member(t); m != nil {
			id.rhs[m] = true
		} else {
			ok = false
		}
	}
	return id, ok
}

// acctState is one control-flow path's view of the identity: how many
// left-side increments await settlement, and whether the path is
// dominated by a settleonce guard.
type acctState struct {
	pending int
	guarded bool
}

func (st *acctState) clone() *acctState { c := *st; return &c }

type acctWalker struct {
	pass      *Pass
	id        *acctIdentity
	guards    map[*types.Func]bool
	loopEntry []int // pending counts at enclosing loop entries
}

func (w *acctWalker) checkFunc(fd *ast.FuncDecl) {
	st := &acctState{}
	if !w.walkStmts(fd.Body.List, st) && st.pending > 0 {
		if !w.pass.Allowed(fd.Body.Rbrace, "handoff") {
			w.pass.Reportf(fd.Body.Rbrace, "%s ends with %d unsettled %q increment(s) (settle with a right-side increment, or annotate //thermlint:handoff -- why)",
				fd.Name.Name, st.pending, w.id.decl.lhs)
		}
	}
}

// walkStmts threads st through a statement list in source order,
// reporting whether the list always terminates (return/branch/panic)
// before falling off its end.
func (w *acctWalker) walkStmts(stmts []ast.Stmt, st *acctState) bool {
	for _, stmt := range stmts {
		if w.walkStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (w *acctWalker) walkStmt(stmt ast.Stmt, st *acctState) bool {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred and spawned work runs on its own schedule; its
		// settles are the spawned body's business.
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, st)
		}
		if st.pending > 0 && !w.pass.Allowed(s.Pos(), "handoff") {
			w.pass.Reportf(s.Pos(), "return leaves %d unsettled %q increment(s) (settle with a right-side increment, or annotate //thermlint:handoff -- why)",
				st.pending, w.id.decl.lhs)
		}
		return true
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE && len(w.loopEntry) > 0 {
			entry := w.loopEntry[len(w.loopEntry)-1]
			if st.pending != entry && !w.pass.Allowed(s.Pos(), "handoff") {
				w.pass.Reportf(s.Pos(), "continue leaves %d unsettled %q increment(s) from this iteration (settle them, or annotate //thermlint:handoff -- why)",
					st.pending-entry, w.id.decl.lhs)
			}
		}
		return true
	case *ast.IfStmt:
		return w.walkIf(s, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanExpr(s.Tag, st)
		return w.walkClauses(s.Pos(), caseBodies(s.Body, st, w), hasDefaultCase(s.Body), st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		return w.walkClauses(s.Pos(), caseBodies(s.Body, st, w), hasDefaultCase(s.Body), st)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, cl := range s.Body.List {
			bodies = append(bodies, cl.(*ast.CommClause).Body)
		}
		// A select executes exactly one clause; there is no fall-past
		// path, so it merges like a switch with a default.
		return w.walkClauses(s.Pos(), bodies, true, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanExpr(s.Cond, st)
		w.walkLoopBody(s.Pos(), s.Body, st)
		return false
	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		w.walkLoopBody(s.Pos(), s.Body, st)
		return false
	case *ast.ExprStmt:
		w.scanExpr(s.X, st)
		return isPanicCall(s.X)
	default:
		w.scanExpr(stmt, st)
		return false
	}
}

// walkIf handles branching and the two settleonce-guard shapes:
// `if guard() { settles }` (the branch's settles are exactly-once by
// the guard's contract) and `if !guard() { return/continue }` (the
// remainder of the function is guard-dominated).
func (w *acctWalker) walkIf(s *ast.IfStmt, st *acctState) bool {
	if s.Init != nil {
		w.walkStmt(s.Init, st)
	}
	isGuard, negated := w.guardCond(s.Cond)
	w.scanExpr(s.Cond, st)

	if isGuard && !negated && s.Else == nil {
		bodySt := st.clone()
		bodySt.guarded = true
		if !w.walkStmts(s.Body.List, bodySt) && bodySt.pending != st.pending {
			w.reportDivergence(s.Pos(), bodySt.pending, st.pending)
		}
		return false
	}
	if isGuard && negated && s.Else == nil {
		bodySt := st.clone()
		if w.walkStmts(s.Body.List, bodySt) {
			st.guarded = true // guard holds on every path past this if
			return false
		}
		// Body falls through: no domination; treated as a plain branch
		// below would double-walk, so just merge here.
		w.mergeBranches(s.Pos(), st, bodySt, st.clone())
		return false
	}

	thenSt := st.clone()
	thenTerm := w.walkStmts(s.Body.List, thenSt)
	elseSt := st.clone()
	elseTerm := false
	if s.Else != nil {
		elseTerm = w.walkStmt(s.Else, elseSt)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		*st = *elseSt
	case elseTerm:
		*st = *thenSt
	default:
		w.mergeBranches(s.Pos(), st, thenSt, elseSt)
	}
	return false
}

// caseBodies walks each case clause's expressions against st and
// returns the clause bodies.
func caseBodies(body *ast.BlockStmt, st *acctState, w *acctWalker) [][]ast.Stmt {
	var bodies [][]ast.Stmt
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		for _, e := range cc.List {
			w.scanExpr(e, st)
		}
		bodies = append(bodies, cc.Body)
	}
	return bodies
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cl.(*ast.CaseClause).List == nil {
			return true
		}
	}
	return false
}

// walkClauses walks each clause body on a clone of st and merges the
// surviving paths, which must agree on pending settlements. exhaustive
// says there is no fall-past path (a default clause exists).
func (w *acctWalker) walkClauses(pos token.Pos, bodies [][]ast.Stmt, exhaustive bool, st *acctState) bool {
	var survivors []*acctState
	for _, body := range bodies {
		clSt := st.clone()
		if !w.walkStmts(body, clSt) {
			survivors = append(survivors, clSt)
		}
	}
	if !exhaustive {
		survivors = append(survivors, st.clone())
	}
	if len(survivors) == 0 {
		return true
	}
	merged := survivors[0]
	for _, s := range survivors[1:] {
		w.mergeBranches(pos, merged, merged.clone(), s)
	}
	*st = *merged
	return false
}

// mergeBranches folds two surviving paths into st. Disagreement on
// pending settlements is the analyzer's core finding — one path settles
// an increment the other leaks — unless annotated as a handoff.
func (w *acctWalker) mergeBranches(pos token.Pos, st, a, b *acctState) {
	if a.pending != b.pending {
		w.reportDivergence(pos, a.pending, b.pending)
	}
	st.pending = min(a.pending, b.pending)
	st.guarded = a.guarded && b.guarded
}

func (w *acctWalker) reportDivergence(pos token.Pos, a, b int) {
	if w.pass.Allowed(pos, "handoff") {
		return
	}
	w.pass.Reportf(pos, "paths disagree on unsettled %q increments (%d vs %d): one branch settles the identity, another leaks it (balance the branches, or annotate //thermlint:handoff -- why)",
		w.id.decl.lhs, max(a, b), min(a, b))
}

// walkLoopBody requires each iteration to settle what it opened: the
// pending count at the body's end must match loop entry.
func (w *acctWalker) walkLoopBody(pos token.Pos, body *ast.BlockStmt, st *acctState) {
	w.loopEntry = append(w.loopEntry, st.pending)
	bodySt := st.clone()
	if !w.walkStmts(body.List, bodySt) && bodySt.pending != st.pending {
		if !w.pass.Allowed(pos, "handoff") {
			w.pass.Reportf(pos, "loop iteration ends with %d unsettled %q increment(s) (settle within the iteration, or annotate //thermlint:handoff -- why)",
				bodySt.pending-st.pending, w.id.decl.lhs)
		}
	}
	w.loopEntry = w.loopEntry[:len(w.loopEntry)-1]
}

// guardCond reports whether expr is a (possibly negated) call to a
// //thermlint:settleonce guard, locally marked or fact-imported.
func (w *acctWalker) guardCond(expr ast.Expr) (isGuard, negated bool) {
	expr = ast.Unparen(expr)
	if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		g, _ := w.guardCond(u.X)
		return g, true
	}
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false, false
	}
	fn := w.pass.CalleeFunc(call)
	if fn == nil {
		return false, false
	}
	if w.guards[fn] {
		return true, false
	}
	var fact settleOnceFact
	return w.pass.ImportObjectFact(fn, &fact) && fact.Guard, false
}

// scanExpr finds the identity's increment sites inside one expression
// or simple statement, in source order. Function literals are skipped:
// they run on their own schedule.
func (w *acctWalker) scanExpr(n ast.Node, st *acctState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			// &owner.field passed to an increment helper.
			if m.Op == token.AND {
				if obj := w.fieldMember(m.X); obj != nil {
					w.site(obj, m.Pos(), st)
				}
			}
		case *ast.CallExpr:
			// owner.field.Inc() / owner.field.Add(n).
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Inc" || sel.Sel.Name == "Add") {
				if obj := w.fieldMember(sel.X); obj != nil {
					w.site(obj, m.Pos(), st)
				}
			}
			// An enum-mode member constant passed as an argument.
			for _, arg := range m.Args {
				if ident, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if obj := w.pass.TypesInfo.Uses[ident]; obj != nil && w.member(obj) {
						w.site(obj, ident.Pos(), st)
					}
				}
			}
		}
		return true
	})
}

// fieldMember resolves expr to an identity-member field object, or nil.
func (w *acctWalker) fieldMember(expr ast.Expr) types.Object {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if obj := w.pass.TypesInfo.Uses[sel.Sel]; obj != nil && w.member(obj) {
		return obj
	}
	return nil
}

func (w *acctWalker) member(obj types.Object) bool {
	return w.id.lhs[obj] || w.id.rhs[obj]
}

// site applies one increment site to the path state: a left-side site
// opens an obligation; a right-side site settles the open one, or —
// with none open — must sit under a settleonce guard.
func (w *acctWalker) site(obj types.Object, pos token.Pos, st *acctState) {
	if w.id.lhs[obj] {
		st.pending++
		return
	}
	if st.guarded {
		return // exactly-once by the guard's contract
	}
	if st.pending > 0 {
		st.pending--
		return
	}
	w.pass.Reportf(pos, "%q incremented with no open %q obligation and no settleonce guard (guard it with an `if <settleonce fn>` transition)",
		obj.Name(), w.id.decl.lhs)
}

// isPanicCall matches a direct call to the builtin panic.
func isPanicCall(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	ident, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && ident.Name == "panic"
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
