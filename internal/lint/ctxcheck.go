package lint

import (
	"go/ast"

	"drugtree/internal/lint/analysis"
)

// ctxVerbs are the exported-name prefixes that mark a function as
// blocking or I/O-shaped: fetching from a source, synchronizing the
// mediator, serving a session, or running a long computation. Such
// functions must accept a context.Context so callers can cancel them
// (PR 1's invariant — every blocking path is abortable).
var ctxVerbs = []string{"Fetch", "Sync", "Serve", "Import", "Run"}

// admissionCtxVerbs extends the verb set inside internal/admission:
// limiter entrypoints block (Acquire), carry deadlines (Begin), or
// wait for quiescence (Drain), so every one must accept a
// context.Context even though the names fall outside the global verb
// list.
var admissionCtxVerbs = []string{"Acquire", "Begin", "Drain"}

// ctxExemptSegments are path segments whose packages ctxcheck skips
// entirely: command mains and examples are context roots by
// definition (bench is the repository benchmark's main, a module of
// its own that `make lint` runs the suite over too), the lint tree
// itself runs no blocking work, and vfs is the filesystem seam whose
// File/FS interfaces must mirror *os.File's context-free method set
// (Sync, SyncDir) — a context parameter there would diverge the seam
// from the os passthrough it abstracts.
var ctxExemptSegments = []string{"bench", "cmd", "examples", "lint", "testdata_exempt", "vfs"}

// CtxCheck enforces context threading: exported functions that fetch,
// sync, serve, or run blocking work must accept context.Context, and
// library code below cmd/ must not mint fresh root contexts with
// context.Background()/TODO() — a goroutine holding a root context is
// invisible to shutdown. The only sanctioned Background() uses are
// nil-context defaulting guards (`if ctx == nil`).
var CtxCheck = &analysis.Analyzer{
	Name: "ctxcheck",
	Doc: "exported Fetch*/Sync*/Serve*/Import*/Run* functions must accept context.Context; " +
		"context.Background()/TODO() below cmd/ only inside `if ctx == nil` guards; " +
		"nextBatch methods must poll cancellation once per batch",
	Run: runCtxCheck,
}

func runCtxCheck(pass *analysis.Pass) (interface{}, error) {
	if anySegment(pass.PkgPath, ctxExemptSegments) {
		return nil, nil
	}
	verbs := ctxVerbs
	if anySegment(pass.PkgPath, []string{"admission"}) {
		verbs = append(append([]string{}, ctxVerbs...), admissionCtxVerbs...)
	}
	for _, f := range pass.Files {
		checkCtxSignatures(pass, f, verbs)
		checkCtxRoots(pass, f)
		checkBatchPoll(pass, f)
	}
	return nil, nil
}

// checkBatchPoll enforces the vectorized executor's cancellation
// contract (the "batchpoll" rule): every nextBatch method — the batch
// operator interface — must poll its context at batch granularity,
// either directly via canceller.now()/.check() or by delegating to
// another batch iterator (a .nextBatch call or drainBatches), which
// polls on its behalf. A nextBatch that neither polls nor delegates
// makes a vectorized query unabortable for the whole operator.
func checkBatchPoll(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "nextBatch" || fd.Body == nil {
			continue
		}
		polls := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				switch fun.Sel.Name {
				case "now", "check", "nextBatch":
					polls = true
				}
			case *ast.Ident:
				if fun.Name == "drainBatches" {
					polls = true
				}
			}
			return !polls
		})
		if !polls {
			pass.Reportf(fd.Name.Pos(),
				"nextBatch does not poll cancellation: call canceller.now()/check() once per batch (or delegate to a polling batch iterator) so vectorized queries stay abortable")
		}
	}
}

// checkCtxSignatures flags exported blocking-verb functions without a
// context parameter.
func checkCtxSignatures(pass *analysis.Pass, f *ast.File, verbs []string) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() || !hasCtxVerb(fd.Name.Name, verbs) {
			continue
		}
		if hasContextParam(f, fd.Type) {
			continue
		}
		pass.Reportf(fd.Name.Pos(),
			"exported %s blocks or performs I/O (name matches %v) but takes no context.Context; thread ctx so callers can cancel it",
			fd.Name.Name, verbs)
	}
}

// checkCtxRoots flags context.Background()/context.TODO() calls
// outside nil-context defaulting guards.
func checkCtxRoots(pass *analysis.Pass, f *ast.File) {
	if _, ok := analysis.ImportName(f, "context"); !ok {
		return
	}
	parents := analysis.Parents(f)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := analysis.IsPkgCall(f, call, "context", "Background", "TODO")
		if !ok {
			return true
		}
		if inNilCtxGuard(parents, call) {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() below cmd/ creates an uncancellable root; accept a ctx parameter instead (nil-defaulting guards are exempt)",
			fn)
		return true
	})
}

// hasCtxVerb reports whether name starts with a blocking verb.
func hasCtxVerb(name string, verbs []string) bool {
	for _, v := range verbs {
		if len(name) >= len(v) && name[:len(v)] == v {
			// Require the verb to end the name or be followed by an
			// uppercase letter / digit, so "Runtime" or "Importance"
			// style names don't match.
			if len(name) == len(v) {
				return true
			}
			c := name[len(v)]
			if c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
				return true
			}
		}
	}
	return false
}

// hasContextParam reports whether ft has a parameter of (aliased)
// type context.Context.
func hasContextParam(f *ast.File, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	ctxName, imported := analysis.ImportName(f, "context")
	if !imported {
		return false
	}
	for _, field := range ft.Params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == ctxName {
			return true
		}
	}
	return false
}

// inNilCtxGuard walks outward from n looking for an enclosing
// `if ctx == nil { ... }` (or `x == nil` comparison naming a Context
// variable) — the sanctioned defaulting pattern.
func inNilCtxGuard(parents map[ast.Node]ast.Node, n ast.Node) bool {
	for cur := n; cur != nil; cur = parents[cur] {
		ifs, ok := cur.(*ast.IfStmt)
		if !ok {
			continue
		}
		if bin, ok := ifs.Cond.(*ast.BinaryExpr); ok && isNilCompare(bin) {
			return true
		}
	}
	return false
}

// isNilCompare matches `<expr> == nil` / `nil == <expr>` where the
// non-nil side mentions a ctx-ish identifier.
func isNilCompare(bin *ast.BinaryExpr) bool {
	if bin.Op.String() != "==" {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	mentionsCtx := func(e ast.Expr) bool {
		s := analysis.ExprString(e)
		return s == "ctx" || len(s) >= 3 && (s[len(s)-3:] == "ctx" || s[len(s)-3:] == "Ctx")
	}
	return isNil(bin.X) && mentionsCtx(bin.Y) || isNil(bin.Y) && mentionsCtx(bin.X)
}
