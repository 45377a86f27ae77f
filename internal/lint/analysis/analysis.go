// Package analysis is a self-contained, stdlib-only mirror of the
// golang.org/x/tools/go/analysis API surface that the drugtree-lint
// analyzers need. The build environment pins dependencies to the
// standard library, so rather than importing x/tools we reimplement
// the small slice of it we use: an Analyzer is a named syntactic
// check, a Pass hands it one parsed package, and diagnostics flow
// back through Pass.Report. Analyzers written against this package
// keep the upstream shape (Name/Doc/Run) so they could be ported to
// the real framework by swapping the import.
//
// The framework is deliberately syntactic: passes carry parsed files
// and per-file import tables but no go/types information. Every
// invariant the suite checks (clock injection, context threading,
// lock discipline, goroutine shutdown, error wrapping) is expressible
// against the AST plus import resolution, and skipping the type
// checker keeps the whole tree lintable in well under a second.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments (`//lint:ignore drugtree/<Name> reason`).
	Name string
	// Doc states the invariant the analyzer enforces.
	Doc string
	// Collect, when non-nil, runs over every package before any Run
	// call and returns this package's exported facts (keys scoped by
	// the analyzer, conventionally "<pkgpath>.<Recv>.<Func>"). The
	// driver merges all packages' facts and delivers the merged table
	// to every Run through Pass.Facts — the cross-package channel
	// lockorder uses to see what a call into another package acquires.
	Collect func(*Pass) (map[string]string, error)
	// Run applies the check to one package.
	Run func(*Pass) (interface{}, error)
}

// Pass is the unit of work handed to an Analyzer: one parsed package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// Filenames is parallel to Files (slash-separated, relative to the
	// module root when loaded by the loader).
	Filenames []string
	// PkgPath is the package import path ("drugtree/internal/query").
	PkgPath string
	// Facts is the merged cross-package fact table for this analyzer
	// (every package's Collect output, including this package's own).
	// Nil for analyzers without a Collect hook.
	Facts map[string]string
	// Report receives each diagnostic.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ImportName returns the name under which file f refers to the
// package with the given import path, and whether it imports it at
// all. An unnamed import resolves to the path's last segment, which
// is correct for every stdlib package the analyzers look for.
func ImportName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			switch imp.Name.Name {
			case "_", ".":
				return "", false // unusable as a qualifier
			}
			return imp.Name.Name, true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p, true
	}
	return "", false
}

// IsPkgCall reports whether call invokes <pkgPath>.<fn> for one of
// fns, resolving the package qualifier through f's import table and
// rejecting identifiers shadowed by local declarations (parser object
// resolution marks those with a non-nil Obj). It returns the matched
// function name.
func IsPkgCall(f *ast.File, call *ast.CallExpr, pkgPath string, fns ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok || x.Obj != nil {
		return "", false
	}
	name, ok := ImportName(f, pkgPath)
	if !ok || x.Name != name {
		return "", false
	}
	for _, fn := range fns {
		if sel.Sel.Name == fn {
			return fn, true
		}
	}
	return "", false
}

// Parents builds a child→parent map for one file, for checks that
// need to look outward from a node (e.g. "is this call inside a
// `ctx == nil` guard?").
func Parents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// ExprString renders a small expression (identifiers and selector
// chains) as source text; other expression kinds render as a
// placeholder. It is used to key mutexes by their receiver chain
// ("c.link.mu") without a full printer.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.StarExpr:
		return ExprString(e.X)
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	case *ast.CallExpr:
		return ExprString(e.Fun) + "(...)"
	}
	return "<expr>"
}
