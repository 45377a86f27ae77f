package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"drugtree/internal/lint/analysis"
)

// ErrCmp enforces sentinel-error hygiene across wrap boundaries:
// wrapcheck makes every error-carrying fmt.Errorf wrap with %w, so a
// raw `err == ErrX` / `err != ErrX` comparison is a latent bug — the
// sentinel arrives wrapped and the identity test silently fails. The
// same applies to type assertions and type switches against concrete
// error types. errors.Is and errors.As unwrap; == and .(T) do not.
// The analyzer flags:
//
//   - ==/!= against a project sentinel (an Err-prefixed identifier or
//     selector) or a curated stdlib sentinel (io.EOF,
//     io.ErrUnexpectedEOF, context.Canceled, context.DeadlineExceeded);
//   - err.(*FooError) type assertions and `switch err.(type)` cases
//     naming *Error types.
//
// Comparisons inside methods named Is or As are exempt: that is the
// errors.Is/errors.As protocol being implemented, the one place raw
// identity is the point.
var ErrCmp = &analysis.Analyzer{
	Name: "errcmp",
	Doc: "compare sentinel errors with errors.Is and match error types with errors.As; " +
		"== and type assertions fail once a call chain wraps with %w",
	Run: runErrCmp,
}

// stdlibSentinels are stdlib errors routinely returned through
// drugtree call chains that wrap — comparing any of them raw is wrong
// everywhere in this tree.
var stdlibSentinels = map[string]bool{
	"io.EOF":                   true,
	"io.ErrUnexpectedEOF":      true,
	"io.ErrClosedPipe":         true,
	"context.Canceled":         true,
	"context.DeadlineExceeded": true,
	"net.ErrClosed":            true,
	"os.ErrNotExist":           true,
	"os.ErrExist":              true,
	"sql.ErrNoRows":            true,
}

// sentinelName renders e as a sentinel-error reference: an identifier
// or selector whose final name has the Err prefix ("ErrPoisoned",
// "store.ErrWALCorrupt"), or a curated stdlib sentinel. Empty when e is
// not sentinel-shaped.
func sentinelName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if strings.HasPrefix(e.Name, "Err") && len(e.Name) > 3 {
			return e.Name
		}
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		if !ok || x.Obj != nil {
			return ""
		}
		full := x.Name + "." + e.Sel.Name
		if stdlibSentinels[full] {
			return full
		}
		if strings.HasPrefix(e.Sel.Name, "Err") && len(e.Sel.Name) > 3 {
			return full
		}
	}
	return ""
}

// errTypeName renders t as a concrete error-type reference
// (*QueryError, mobile.BusyError) by the house convention that
// error types end in "Error". Empty otherwise.
func errTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return errTypeName(t.X)
	case *ast.Ident:
		if strings.HasSuffix(t.Name, "Error") {
			return t.Name
		}
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok && strings.HasSuffix(t.Sel.Name, "Error") {
			return x.Name + "." + t.Sel.Name
		}
	}
	return ""
}

// errish reports whether e looks like an error value: an identifier
// or selector whose name is err-ish ("err", "werr", "lastErr", "e").
func errish(e ast.Expr) bool {
	name := ""
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.CallExpr:
		// errors.Unwrap(err), r.Err() — a call yielding an error.
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			name = sel.Sel.Name
		}
	}
	l := strings.ToLower(name)
	return l == "err" || l == "e" || strings.HasSuffix(l, "err") || strings.HasSuffix(l, "error")
}

func runErrCmp(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if fn.Recv != nil && (fn.Name.Name == "Is" || fn.Name.Name == "As") {
				return false // the errors.Is/As protocol implementation itself
			}
			if fn.Body == nil {
				return false
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.BinaryExpr:
					if x.Op != token.EQL && x.Op != token.NEQ {
						return true
					}
					name := sentinelName(x.Y)
					other := x.X
					if name == "" {
						name = sentinelName(x.X)
						other = x.Y
					}
					if name == "" || !errish(other) {
						return true
					}
					pass.Reportf(x.Pos(),
						"comparing error with %s %s: call chains wrap with %%w, so identity fails on a wrapped %s; use errors.Is(err, %s)",
						x.Op, name, name, name)
				case *ast.TypeAssertExpr:
					if x.Type == nil {
						return true // the `switch err.(type)` form, handled below
					}
					if t := errTypeName(x.Type); t != "" && errish(x.X) {
						pass.Reportf(x.Pos(),
							"type assertion to %s misses wrapped errors; use errors.As(err, &target)", t)
					}
				case *ast.TypeSwitchStmt:
					var operand ast.Expr
					switch a := x.Assign.(type) {
					case *ast.ExprStmt:
						if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
							operand = ta.X
						}
					case *ast.AssignStmt:
						if len(a.Rhs) == 1 {
							if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
								operand = ta.X
							}
						}
					}
					if operand == nil || !errish(operand) {
						return true
					}
					for _, c := range x.Body.List {
						cc, ok := c.(*ast.CaseClause)
						if !ok {
							continue
						}
						for _, t := range cc.List {
							if name := errTypeName(t); name != "" {
								pass.Reportf(t.Pos(),
									"type switch on an error matches %s only unwrapped; use errors.As(err, &target)", name)
							}
						}
					}
				}
				return true
			})
			return false
		})
	}
	return nil, nil
}
