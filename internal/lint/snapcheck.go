package lint

import (
	"go/ast"

	"drugtree/internal/lint/analysis"
)

// SnapCheck enforces the snapshot-handle discipline behind the MVCC
// store's garbage collector: a pinned version is only reclaimable
// after its handle is released, so every PinSnapshot() acquisition
// must have a visible release or ownership-transfer path. For each
// `h := x.PinSnapshot()` the statements after it in the same block
// must reach, before any early return, one of:
//
//   - `defer h.Release()` — directly or inside a deferred closure
//   - a top-level `h.Release()` call (the pin/read/release idiom)
//   - an ownership transfer: h returned, passed as a call argument,
//     aliased/stored into another value, sent on a channel, or
//     captured by a closure — the receiver owns the release
//
// A `return` statement (or a branch containing one with no Release of
// h inside it) encountered first is a leak-on-early-return; falling
// off the end of the block without any of the above is a plain leak.
// A PinSnapshot whose result is discarded pins a version nothing can
// ever unpin and is always wrong.
var SnapCheck = &analysis.Analyzer{
	Name: "snapcheck",
	Doc: "every PinSnapshot() needs a release path: defer h.Release(), " +
		"an unconditional release, or an ownership transfer",
	Run: eachPackage(runSnapCheck),
}

func runSnapCheck(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			checkSnapBlock(pass, block)
			return true
		})
	}
}

// checkSnapBlock scans one block for pin sites and verifies each has a
// release path among the statements that follow it in this block.
func checkSnapBlock(pass *analysis.Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isPinCall(call) {
				pass.Reportf(s.Pos(),
					"snapshot pinned and discarded; assign the handle and release it")
			}
		case *ast.AssignStmt:
			name, ok := pinAssignTarget(s)
			if !ok {
				continue
			}
			if name == "_" {
				pass.Reportf(s.Pos(),
					"snapshot pinned and discarded; assign the handle and release it")
				continue
			}
			checkSnapRelease(pass, s, name, block.List[i+1:])
		}
	}
}

// pinAssignTarget matches `h := x.PinSnapshot()` / `h = x.PinSnapshot()`
// and returns the handle variable's name.
func pinAssignTarget(s *ast.AssignStmt) (string, bool) {
	if len(s.Rhs) != 1 || len(s.Lhs) != 1 {
		return "", false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || !isPinCall(call) {
		return "", false
	}
	id, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

func isPinCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "PinSnapshot"
}

// checkSnapRelease walks the statements after a pin until it finds a
// release path or a leaking exit.
func checkSnapRelease(pass *analysis.Pass, pin *ast.AssignStmt, h string, rest []ast.Stmt) {
	for _, stmt := range rest {
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			if deferReleases(s, h) {
				return
			}
		case *ast.ExprStmt:
			if isReleaseCall(s.X, h) {
				return
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if transfersHandle(r, h) {
					return // ownership transfers to the caller
				}
			}
			pass.Reportf(pin.Pos(),
				"snapshot %s may leak: return before %s.Release(); defer the release right after pinning", h, h)
			return
		}
		if stmtTransfersOwnership(stmt, h) {
			return
		}
		if stmtReturnsWithout(stmt, h) {
			pass.Reportf(pin.Pos(),
				"snapshot %s may leak on an early return; defer %s.Release() right after pinning", h, h)
			return
		}
	}
	pass.Reportf(pin.Pos(),
		"snapshot %s is never released; call %s.Release() or defer it", h, h)
}

// deferReleases matches `defer h.Release()` and deferred closures that
// release h in their body.
func deferReleases(d *ast.DeferStmt, h string) bool {
	if isReleaseCall(d.Call, h) {
		return true
	}
	if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
		found := false
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isReleaseCall(call, h) {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

// isReleaseCall matches the expression `h.Release()`.
func isReleaseCall(e ast.Expr, h string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == h
}

// stmtTransfersOwnership reports whether stmt hands the handle to
// another owner: as a call argument, an alias or stored value, a
// channel send, or a closure capture.
func stmtTransfersOwnership(stmt ast.Stmt, h string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			for _, a := range x.Args {
				if transfersHandle(a, h) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				if id, ok := r.(*ast.Ident); ok && id.Name == h {
					found = true
				}
			}
		case *ast.SendStmt:
			if transfersHandle(x.Value, h) {
				found = true
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if transfersHandle(el, h) {
					found = true
				}
			}
		case *ast.FuncLit:
			// A closure capturing h takes over its lifetime (the defer-
			// closure form is recognized before we get here).
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == h {
					found = true
				}
				return !found
			})
			return false
		}
		return !found
	})
	return found
}

// stmtReturnsWithout reports whether stmt contains a return on a path
// with no Release of h inside the same statement — the leak-on-early-
// return shape (`if err != nil { return err }` between pin and
// release). Returns inside nested closures are that closure's exits,
// not this function's, and are ignored.
func stmtReturnsWithout(stmt ast.Stmt, h string) bool {
	hasReturn, hasRelease := false, false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			hasReturn = true
		case *ast.CallExpr:
			if isReleaseCall(x, h) {
				hasRelease = true
			}
		}
		return true
	})
	return hasReturn && !hasRelease
}

// transfersHandle reports whether evaluating e hands the handle
// *itself* to a new owner: the bare identifier, the handle passed as
// a call argument, stored in a composite literal, or captured by a
// closure. A value merely *derived from* the handle — `h.Version()`,
// `int(h.Version())` — does not transfer it: the receiver position of
// a method call is the handle being used, not given away.
func transfersHandle(e ast.Expr, h string) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == h
	case *ast.ParenExpr:
		return transfersHandle(x.X, h)
	case *ast.UnaryExpr:
		return transfersHandle(x.X, h)
	case *ast.StarExpr:
		return transfersHandle(x.X, h)
	case *ast.KeyValueExpr:
		return transfersHandle(x.Value, h)
	case *ast.CallExpr:
		for _, a := range x.Args {
			if transfersHandle(a, h) {
				return true
			}
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if transfersHandle(el, h) {
				return true
			}
		}
	case *ast.FuncLit:
		return nodeMentions(x.Body, h) // closure capture
	}
	return false
}

// nodeMentions reports whether the identifier h appears anywhere in n.
func nodeMentions(n ast.Node, h string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && id.Name == h {
			found = true
		}
		return !found
	})
	return found
}
