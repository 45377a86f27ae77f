package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"drugtree/internal/lint/analysis"
)

// WrapCheck enforces the error-chain invariant the PR 2 resilience
// layer depends on: breaker and degradation logic classifies failures
// with errors.Is/errors.As, which only see through errors wrapped
// with %w (or a package sentinel). A fmt.Errorf that flattens an
// error value through %v or %s severs the chain at the package
// boundary, and a breaker downstream misclassifies the failure.
var WrapCheck = &analysis.Analyzer{
	Name: "wrapcheck",
	Doc: "errors crossing a package boundary must be wrapped with %w " +
		"(fmt.Errorf flattening an err through %v/%s breaks errors.Is for breaker logic)",
	Run: eachPackage(runWrapCheck),
}

func runWrapCheck(pass *analysis.Pass) {
	for _, f := range pass.Files {
		if _, ok := analysis.ImportName(f, "fmt"); !ok {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if _, ok := analysis.IsPkgCall(f, call, "fmt", "Errorf"); !ok {
				return true
			}
			format, ok := stringLit(call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				if isErrValue(arg) {
					pass.Reportf(call.Pos(),
						"fmt.Errorf flattens %s without %%w; wrap it so errors.Is/errors.As see the cause",
						analysis.ExprString(arg))
				}
			}
			return true
		})
	}
}

// stringLit extracts a constant string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// isErrValue recognizes error-typed operands syntactically: the
// conventional identifiers (err, xErr, errX fields) and calls to
// <expr>.Error().
func isErrValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return isErrName(e.Name)
	case *ast.SelectorExpr:
		return isErrName(e.Sel.Name)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Error" && len(e.Args) == 0
		}
	}
	return false
}

func isErrName(name string) bool {
	return name == "err" || strings.HasSuffix(name, "Err") || strings.HasSuffix(name, "err")
}
