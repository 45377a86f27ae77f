package lint

import (
	"go/ast"
	"go/token"

	"drugtree/internal/lint/analysis"
)

// lockBlockingCalls are method/function names that block on I/O, the
// scheduler, or another goroutine. Holding a mutex across any of them
// serializes the system behind the slowest caller (and Wait/<-ch can
// deadlock outright against another goroutine needing the same lock).
var lockBlockingCalls = map[string]bool{
	"Sleep": true, "Fetch": true, "FetchAll": true, "Wait": true,
	"ReadMsg": true, "WriteMsg": true, "Accept": true,
	"Serve": true, "ServeConn": true, "Sync": true, "Query": true,
	"OpenSubtree": true, "RunPrefetch": true, "Do": true,
}

// LockCheck enforces mutex discipline: no blocking call or channel
// operation while a sync.Mutex/RWMutex is held, and no return path
// that leaves a manually-locked mutex locked (multi-return functions
// must use defer). The analysis is an intraprocedural, syntactic
// walk: Lock()/RLock() receivers are tracked textually ("c.link.mu")
// through the statement list, branch bodies are scanned with a copy
// of the held set, and an Unlock on the textual path clears it.
var LockCheck = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "forbid blocking calls and channel ops while a mutex is held, " +
		"and returns that leave a manually-locked mutex locked (use defer on multi-return paths)",
	Run: runLockCheck,
}

func runLockCheck(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		// Every function body — declarations and literals — is an
		// independent scan root with an empty held set.
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					scanLockBlock(pass, fn.Body.List, newHeldSet())
				}
			case *ast.FuncLit:
				if fn.Body != nil {
					scanLockBlock(pass, fn.Body.List, newHeldSet())
				}
			}
			return true
		})
	}
	return nil, nil
}

// heldLock is one acquired mutex on the current textual path.
type heldLock struct {
	pos      token.Pos
	deferred bool // released by a registered defer
}

// heldSet tracks lock state along one textual path. locks is cloned
// at branch points; deferredOnce is function-wide and shared across
// clones — once `defer mu.Unlock()` has executed, it releases every
// later re-acquisition of mu at function exit, so re-locks after an
// unlock/relock dance stay defer-protected.
type heldSet struct {
	locks        map[string]*heldLock
	deferredOnce map[string]bool
}

func newHeldSet() heldSet {
	return heldSet{locks: make(map[string]*heldLock), deferredOnce: make(map[string]bool)}
}

func (h heldSet) clone() heldSet {
	c := heldSet{locks: make(map[string]*heldLock, len(h.locks)), deferredOnce: h.deferredOnce}
	for k, v := range h.locks {
		c.locks[k] = v
	}
	return c
}

// scanLockBlock walks stmts in order, tracking lock state. Branch
// bodies are scanned with a cloned set: an Unlock inside a branch
// releases for that branch only, matching the common
// "if fast-path { unlock; return }" shape without path explosion.
func scanLockBlock(pass *analysis.Pass, stmts []ast.Stmt, held heldSet) {
	for _, stmt := range stmts {
		scanLockStmt(pass, stmt, held)
	}
}

func scanLockStmt(pass *analysis.Pass, stmt ast.Stmt, held heldSet) {
	// Any statement other than the lock/unlock calls themselves is
	// first checked for blocking operations while something is held.
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, op, ok := lockOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				held.locks[recv] = &heldLock{pos: s.Pos(), deferred: held.deferredOnce[recv]}
			case "Unlock", "RUnlock":
				delete(held.locks, recv)
			}
			return
		}
		checkBlockingExpr(pass, s.X, held)
	case *ast.DeferStmt:
		if recv, op, ok := lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			if l := held.locks[recv]; l != nil {
				l.deferred = true
			}
			held.deferredOnce[recv] = true
			return
		}
		// The deferred call runs after the function body; its body is
		// scanned as its own root by runLockCheck.
	case *ast.ReturnStmt:
		checkBlockingExprs(pass, s.Results, held)
		for recv, l := range held.locks {
			if !l.deferred {
				pass.Reportf(s.Pos(),
					"return leaves %s locked (acquired at line %d); release it on this path or use defer %s.Unlock()",
					recv, pass.Fset.Position(l.pos).Line, recv)
			}
		}
	case *ast.SendStmt:
		reportIfHeld(pass, s.Pos(), held, "channel send")
	case *ast.SelectStmt:
		reportIfHeld(pass, s.Pos(), held, "select")
		for _, c := range s.Body.List {
			if comm, ok := c.(*ast.CommClause); ok {
				scanLockBlock(pass, comm.Body, held.clone())
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			scanLockStmt(pass, s.Init, held)
		}
		checkBlockingExpr(pass, s.Cond, held)
		scanLockBlock(pass, s.Body.List, held.clone())
		if s.Else != nil {
			scanLockStmt(pass, s.Else, held.clone())
		}
	case *ast.BlockStmt:
		scanLockBlock(pass, s.List, held)
	case *ast.ForStmt:
		scanLockBlock(pass, s.Body.List, held.clone())
	case *ast.RangeStmt:
		scanLockBlock(pass, s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			scanLockStmt(pass, s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanLockBlock(pass, cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanLockBlock(pass, cc.Body, held.clone())
			}
		}
	case *ast.AssignStmt:
		checkBlockingExprs(pass, s.Rhs, held)
	case *ast.GoStmt:
		// The goroutine runs concurrently; it does not inherit the
		// caller's locks (scanned separately as its own root).
	case *ast.LabeledStmt:
		scanLockStmt(pass, s.Stmt, held)
	}
}

// lockOp recognizes `<recv>.Lock()` / `Unlock` / `RLock` / `RUnlock`
// calls and returns the receiver's textual form.
func lockOp(e ast.Expr) (recv, op string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return analysis.ExprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// checkBlockingExpr flags blocking calls and channel receives inside
// e while any mutex is held.
func checkBlockingExpr(pass *analysis.Pass, e ast.Expr, held heldSet) {
	if e == nil || len(held.locks) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // deferred/escaping body, not on this path
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				reportIfHeld(pass, x.Pos(), held, "channel receive")
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && lockBlockingCalls[sel.Sel.Name] {
				reportIfHeld(pass, x.Pos(), held, analysis.ExprString(x.Fun)+" call")
			}
		}
		return true
	})
}

func checkBlockingExprs(pass *analysis.Pass, es []ast.Expr, held heldSet) {
	for _, e := range es {
		checkBlockingExpr(pass, e, held)
	}
}

// reportIfHeld emits one diagnostic per held mutex for a blocking
// operation.
func reportIfHeld(pass *analysis.Pass, pos token.Pos, held heldSet, what string) {
	for recv := range held.locks {
		pass.Reportf(pos,
			"%s while %s is held; release the lock before blocking (copy what you need under the lock)",
			what, recv)
	}
}
