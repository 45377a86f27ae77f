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
//     from a time/clock call (After, Tick, Done — they fire) — except
//     a wait on nothing but the Done() of a context the spawning
//     function received as a parameter: that goroutine outlives its
//     spawner until the caller cancels, so it needs a stop channel the
//     spawner closes or a context the spawner derives and cancels;
//   - a range over a channel some visible close() releases.
//
// Everything else is a potential wedge and gets flagged.
var SendCheck = &analysis.Analyzer{
	Name: "sendcheck",
	Doc: "channel ops inside spawned goroutines must be select-guarded by ctx.Done()/default, " +
		"provably buffered, or released by a visible close — an unguarded op wedges the goroutine when its peer exits",
	Run: eachPackage(runSendCheck),
}

func runSendCheck(pass *analysis.Pass) {
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
			sc := &sendScope{pass, buffered, closed, receivedCtxs(f, fn)}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				fl, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true // go x.Method(...): body out of reach, spawncheck's beat
				}
				sc.scan(fl.Body)
				return false // nested go statements are scanned by scan
			})
			return false
		})
	}
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

// receivedCtxs names fn's context.Context parameters that its body does
// not rebind to a context it derives (context.WithCancel and kin).
func receivedCtxs(f *ast.File, fn *ast.FuncDecl) map[string]bool {
	ctxPkg, _ := analysis.ImportName(f, "context")
	received := map[string]bool{}
	for _, p := range fn.Type.Params.List {
		if sel, ok := p.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Context" && analysis.ExprString(sel.X) == ctxPkg {
			for _, id := range p.Names {
				received[id.Name] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if a, ok := n.(*ast.AssignStmt); ok && len(a.Rhs) == 1 {
			if call, ok := a.Rhs[0].(*ast.CallExpr); ok {
				if _, derived := analysis.IsPkgCall(f, call, "context", "WithCancel", "WithCancelCause",
					"WithTimeout", "WithTimeoutCause", "WithDeadline", "WithDeadlineCause"); derived {
					delete(received, analysis.ExprString(a.Lhs[0]))
				}
			}
		}
		return true
	})
	return received
}

// sendScope is the evidence one spawning function offers its
// goroutines.
type sendScope struct {
	pass     *analysis.Pass
	buffered map[string]bool // channels made with a buffer in the function
	closed   map[string]bool // channels closed anywhere in the file
	received map[string]bool // context parameters it did not derive
}

// callerDone reports whether e is <ctx>.Done() of a received context.
func (s *sendScope) callerDone(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done" && s.received[analysis.ExprString(sel.X)]
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

// scan walks a spawned body flagging unguarded channel ops.
func (s *sendScope) scan(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectStmt:
			guarded := guardedSelect(x)
			onlyCaller := len(x.Body.List) > 0
			for _, c := range x.Body.List {
				comm := c.(*ast.CommClause)
				if comm.Comm != nil && !guarded {
					s.checkChanOpStmt(comm.Comm)
				}
				onlyCaller = onlyCaller && comm.Comm != nil && s.callerDone(commReceive(comm.Comm))
				for _, st := range comm.Body {
					s.scan(st)
				}
			}
			if onlyCaller {
				s.reportCallerDone(x.Body.List[0].(*ast.CommClause).Comm)
			}
			return false
		case *ast.SendStmt:
			s.checkSend(x)
			return true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.checkReceive(x.Pos(), x.X)
			}
		case *ast.RangeStmt:
			if name, ok := chanIdent(x.X); ok && looksChannel(name) && !s.closed[name] {
				s.pass.Reportf(x.Pos(),
					"goroutine ranges over %s with no visible close(%s); the loop never ends and the goroutine leaks",
					name, name)
			}
			for _, st := range x.Body.List {
				s.scan(st)
			}
			return false
		case *ast.GoStmt:
			if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
				s.scan(fl.Body)
			}
			return false
		}
		return true
	})
}

// checkChanOpStmt re-checks a comm clause of an unguarded select as
// if it were a bare op.
func (s *sendScope) checkChanOpStmt(st ast.Stmt) {
	if send, ok := st.(*ast.SendStmt); ok {
		s.checkSend(send)
		return
	}
	if recv := commReceive(st); recv != nil {
		s.checkReceive(st.Pos(), recv)
	}
}

func (s *sendScope) checkSend(st *ast.SendStmt) {
	name, ok := chanIdent(st.Chan)
	if ok && s.buffered[name] {
		return
	}
	if !ok {
		name = analysis.ExprString(st.Chan)
	}
	s.pass.Reportf(st.Pos(),
		"unguarded send to %s in a goroutine wedges it if the receiver exits first; "+
			"select on it with ctx.Done() (or size the buffer for every send)", name)
}

func (s *sendScope) checkReceive(pos token.Pos, ch ast.Expr) {
	if s.callerDone(ch) {
		s.reportCallerDone(ch)
		return
	}
	if isEscapeChannel(ch) {
		return
	}
	name, ok := chanIdent(ch)
	if ok && s.closed[name] {
		return
	}
	if _, isCall := ch.(*ast.CallExpr); isCall {
		return // clock.After-style sources fire on their own
	}
	if !ok {
		name = analysis.ExprString(ch)
	}
	s.pass.Reportf(pos,
		"unguarded receive from %s in a goroutine wedges it if the sender exits first; "+
			"select on it with ctx.Done() or close(%s) on every sender path", name, name)
}

// reportCallerDone flags a goroutine whose only wait, at n, is on a
// received context's Done().
func (s *sendScope) reportCallerDone(n ast.Node) {
	s.pass.Reportf(n.Pos(),
		"goroutine waits only on the Done() of a context its spawner received, so it outlives the spawner "+
			"until the caller cancels; also select on a channel the spawner closes, or derive a context it cancels")
}

// looksChannel is the naming heuristic for range targets: without
// types, `for v := range items` (a slice) and `for v := range ch` (a
// channel) are identical, so only channel-named identifiers are held
// to the close rule.
func looksChannel(name string) bool {
	return isSignalName(name) || name == "ch" || name == "c" ||
		len(name) > 2 && (name[len(name)-2:] == "ch" || name[len(name)-2:] == "Ch")
}
