package lint

import (
	"go/ast"
	"go/token"

	"drugtree/internal/lint/analysis"
)

// SendCheck polices channel operations inside spawned goroutines,
// the other half of the leak story spawncheck opens: spawncheck
// demands that a goroutine *have* a shutdown path, sendcheck demands
// that its channel ops cannot wedge it past that path. An unguarded
// `results <- r` in a worker blocks forever once the consumer stops
// draining (it returned early on error, the client disconnected), and
// the goroutine — plus everything it pins — leaks. The accepted
// shapes, matching the idioms the query executor and mobile layers
// use:
//
//   - the op is a case of a select that also has a ctx.Done()/signal
//     receive or a default clause (the op loses the race, the
//     goroutine still exits);
//   - a send to a channel provably buffered at the spawn site: a
//     visible `make(chan T, n)` with nonzero capacity in the
//     enclosing function, sized so the send cannot block (the
//     one-result-per-worker errc idiom);
//   - a receive from ctx.Done()/a done/stop/quit signal channel, or
//     from a time/clock call (After, Tick, Done — they fire);
//   - a range over a channel some visible close() releases.
//
// Everything else is a potential wedge and gets flagged.
var SendCheck = &analysis.Analyzer{
	Name: "sendcheck",
	Doc: "channel ops inside spawned goroutines must be select-guarded by ctx.Done()/default, " +
		"provably buffered, or released by a visible close — an unguarded op wedges the goroutine when its peer exits",
	Run: runSendCheck,
}

func runSendCheck(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		// Channels closed anywhere in this file. File scope (not
		// function scope) keeps producer-closes-in-helper idioms legal
		// without facts: the proof the reader would look for is on the
		// same page.
		closed := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			x, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fun, ok := x.Fun.(*ast.Ident); ok && fun.Name == "close" && len(x.Args) == 1 {
				if name, ok := chanIdent(x.Args[0]); ok {
					closed[name] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			// Buffered proof is function-scoped: the make and the
			// spawn sit together in the errc idiom, and a same-named
			// channel in a sibling function proves nothing.
			buffered := map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if x, ok := n.(*ast.AssignStmt); ok {
					for i, rhs := range x.Rhs {
						if i >= len(x.Lhs) {
							break
						}
						if name, ok := chanIdent(x.Lhs[i]); ok && isBufferedMake(rhs) {
							buffered[name] = true
						}
					}
				}
				return true
			})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				fl, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true // go x.Method(...): body out of reach, spawncheck's beat
				}
				scanSendBody(pass, fl.Body, buffered, closed)
				return false // nested go statements are scanned by scanSendBody
			})
			return false
		})
	}
	return nil, nil
}

// chanIdent names a channel-valued expression: a bare identifier or
// the final selector of a field chain.
func chanIdent(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		return e.Sel.Name, true
	}
	return "", false
}

// isBufferedMake matches make(chan T, n) with a nonzero capacity
// expression.
func isBufferedMake(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "make" {
		return false
	}
	if _, ok := call.Args[0].(*ast.ChanType); !ok {
		return false
	}
	if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Value == "0" {
		return false
	}
	return true
}

// guardedSelect reports whether sel has an escape case: a default
// clause or a receive from ctx.Done()/a signal channel.
func guardedSelect(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		comm, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if comm.Comm == nil {
			return true // default
		}
		if recv := commReceive(comm.Comm); recv != nil && isEscapeChannel(recv) {
			return true
		}
	}
	return false
}

// commReceive extracts the channel expression of a receive comm
// clause (`<-ch`, `v := <-ch`, `v, ok := <-ch`), or nil for sends.
func commReceive(s ast.Stmt) ast.Expr {
	var e ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
		return ue.X
	}
	return nil
}

// isEscapeChannel reports whether receiving from e lets the goroutine
// exit: ctx.Done(), a done/stop/quit signal channel, or a firing
// timer-ish call.
func isEscapeChannel(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return isSignalName(e.Name)
	case *ast.SelectorExpr:
		return isSignalName(e.Sel.Name)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Done", "After", "Tick", "Deadline", "Elapsed":
				return true
			}
		}
	}
	return false
}

// scanSendBody walks a spawned body flagging unguarded channel ops.
func scanSendBody(pass *analysis.Pass, body ast.Node, buffered, closed map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectStmt:
			guarded := guardedSelect(x)
			for _, c := range x.Body.List {
				comm, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if comm.Comm != nil && !guarded {
					checkChanOpStmt(pass, comm.Comm, buffered, closed)
				}
				for _, s := range comm.Body {
					scanSendBody(pass, s, buffered, closed)
				}
			}
			return false
		case *ast.SendStmt:
			checkSend(pass, x, buffered)
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				checkReceive(pass, x, closed)
			}
		case *ast.RangeStmt:
			if name, ok := chanIdent(x.X); ok && looksChannel(name) && !closed[name] {
				pass.Reportf(x.Pos(),
					"goroutine ranges over %s with no visible close(%s); the loop never ends and the goroutine leaks",
					name, name)
			}
			for _, s := range x.Body.List {
				scanSendBody(pass, s, buffered, closed)
			}
			return false
		case *ast.GoStmt:
			if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
				scanSendBody(pass, fl.Body, buffered, closed)
			}
			return false
		}
		return true
	})
}

// checkChanOpStmt re-checks a comm clause of an unguarded select as
// if it were a bare op.
func checkChanOpStmt(pass *analysis.Pass, s ast.Stmt, buffered, closed map[string]bool) {
	if send, ok := s.(*ast.SendStmt); ok {
		checkSend(pass, send, buffered)
		return
	}
	if recv := commReceive(s); recv != nil {
		checkReceiveChan(pass, s.Pos(), recv, closed)
	}
}

func checkSend(pass *analysis.Pass, s *ast.SendStmt, buffered map[string]bool) {
	name, ok := chanIdent(s.Chan)
	if ok && buffered[name] {
		return
	}
	if !ok {
		name = analysis.ExprString(s.Chan)
	}
	pass.Reportf(s.Pos(),
		"unguarded send to %s in a goroutine wedges it if the receiver exits first; "+
			"select on it with ctx.Done() (or size the buffer for every send)", name)
}

func checkReceive(pass *analysis.Pass, ue *ast.UnaryExpr, closed map[string]bool) {
	checkReceiveChan(pass, ue.Pos(), ue.X, closed)
}

func checkReceiveChan(pass *analysis.Pass, pos token.Pos, ch ast.Expr, closed map[string]bool) {
	if isEscapeChannel(ch) {
		return
	}
	name, ok := chanIdent(ch)
	if ok && closed[name] {
		return
	}
	if _, isCall := ch.(*ast.CallExpr); isCall {
		return // clock.After-style sources fire on their own
	}
	if !ok {
		name = analysis.ExprString(ch)
	}
	pass.Reportf(pos,
		"unguarded receive from %s in a goroutine wedges it if the sender exits first; "+
			"select on it with ctx.Done() or close(%s) on every sender path", name, name)
}

// looksChannel is the naming heuristic for range targets: without
// types, `for v := range items` (a slice) and `for v := range ch` (a
// channel) are identical, so only channel-named identifiers are held
// to the close rule.
func looksChannel(name string) bool {
	return isSignalName(name) || name == "ch" || name == "c" ||
		len(name) > 2 && (name[len(name)-2:] == "ch" || name[len(name)-2:] == "Ch")
}
