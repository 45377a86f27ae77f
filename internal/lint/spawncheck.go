package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"drugtree/internal/lint/analysis"
)

// SpawnCheck enforces the goroutine-shutdown invariant behind the
// PR 1/PR 2 leak tests: every `go` statement must have a visible
// shutdown or completion path. Accepted evidence, in the spawned
// body (or the argument list for `go method(...)` form):
//
//   - a context: an identifier named ctx / *Ctx, or a ctx.Done() call
//   - a channel operation: send, receive, close, or select (the
//     "errc <- f()" completion-signal idiom counts — the spawner
//     joins on the channel)
//   - a WaitGroup: wg.Done() / wg.Wait()
//
// A bare `go f()` with none of these is a goroutine nothing can stop
// or join, exactly the shape the -race leak tests exist to catch.
var SpawnCheck = &analysis.Analyzer{
	Name: "spawncheck",
	Doc: "every go statement needs a shutdown or completion path: " +
		"a threaded ctx, a channel op, or a WaitGroup",
	Run: eachPackage(runSpawnCheck),
}

func runSpawnCheck(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
				if !bodyHasShutdownPath(fl) && !argsHaveShutdownPath(g.Call) {
					pass.Reportf(g.Pos(),
						"goroutine has no shutdown path; thread a ctx, signal a channel, or register with a WaitGroup")
				}
				return true
			}
			// go pkg.Fn(args...) / go x.Method(args...): the body is out
			// of reach, so the arguments must carry the cancellation.
			if !argsHaveShutdownPath(g.Call) {
				pass.Reportf(g.Pos(),
					"goroutine %s receives no context or signalling argument; it cannot be cancelled or joined",
					analysis.ExprString(g.Call.Fun))
			}
			return true
		})
	}
}

// bodyHasShutdownPath scans a spawned func literal for any accepted
// shutdown evidence.
func bodyHasShutdownPath(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if isCtxName(x.Name) {
				found = true
			}
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			// `for v := range ch` over a channel closes the loop when
			// the channel closes; ranging a slice/map is inert but
			// harmless to accept only when paired with other evidence,
			// so ranges alone are NOT evidence.
		case *ast.CallExpr:
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" || fun.Sel.Name == "Wait" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// argsHaveShutdownPath reports whether any call argument is a context
// or channel-ish value the callee can select on.
func argsHaveShutdownPath(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		switch a := arg.(type) {
		case *ast.Ident:
			if isCtxName(a.Name) || isSignalName(a.Name) {
				return true
			}
		case *ast.CallExpr:
			// context.Background()/WithTimeout(...) etc: passing any
			// context is a shutdown path (the callee honors ctx);
			// ctxcheck separately polices Background() roots.
			if sel, ok := a.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "context" {
					return true
				}
			}
		case *ast.SelectorExpr:
			if isCtxName(a.Sel.Name) || isSignalName(a.Sel.Name) {
				return true
			}
		}
	}
	return false
}

func isCtxName(name string) bool {
	return name == "ctx" || strings.HasSuffix(name, "Ctx") || strings.HasSuffix(name, "ctx")
}

func isSignalName(name string) bool {
	switch {
	case name == "done" || name == "stop" || name == "quit":
		return true
	case strings.HasSuffix(name, "ch") || strings.HasSuffix(name, "Ch"),
		strings.HasSuffix(name, "Chan"), strings.HasPrefix(name, "done"):
		return true
	}
	return false
}
