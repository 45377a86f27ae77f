package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

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

// chainBlockingCalls are the named operations that make a function
// block for the cross-package check: unbounded synchronization waits
// (sync.WaitGroup.Wait, sync.Cond.Wait), open-ended request dispatch
// (client.Do) and sleeps (time.Sleep, netsim.Clock.Sleep). Channel
// operations are detected structurally. The broader lockBlockingCalls
// list (Sync, Fetch, Query, ...) is deliberately NOT reused here:
// bounded disk/network I/O under a lock is a per-site concern, while
// the call-chain check hunts deadlock and stall shapes — its contract
// is "channel op, Wait or Sleep in the call chain" (see the Budget
// note in lint.go). Folding fsync into the closure would flag every
// WAL group-commit reachable under a coordinator mutex, which is the
// durability design, not a deadlock.
var chainBlockingCalls = map[string]bool{"Wait": true, "Do": true, "Sleep": true}

// LockCheck enforces mutex discipline, within a function and across
// packages. One syntactic walk over every function body of the run
// tracks the mutexes held along each textual path — Lock()/RLock()
// receivers as written ("c.link.mu"), branch bodies walked with a copy
// of the held set, an Unlock on the path clearing it — and reports:
//
//   - a blocking call (lockBlockingCalls) or channel operation while a
//     mutex is held, naming the receiver as written;
//   - a return that leaves a manually-locked mutex locked
//     (multi-return functions must use defer);
//   - lock-order cycles: acquiring (directly or via any call chain)
//     lock B while holding lock A when some chain also acquires A
//     while holding B — the two-thread deadlock shape. Re-entrant
//     acquisition (A while holding A) is the one-thread special case.
//   - a call made under a lock whose call chain blocks: a channel op,
//     a select without default, or a chainBlockingCalls call.
//
// The last two come from a table the same walk fills: for every
// function, the lock classes it acquires and the calls it makes, each
// with the classes held there, and whether it blocks. The table is
// built once a run and closed over the call graph once.
//
// Lock identity for the table is a class, not an instance:
// "store.DB.mu" names the mu field of every store.DB. Classes come
// from the receiver or parameter type when the lock expression roots
// there ("db.mu" in a *DB method), and are function-scoped for true
// locals (a local mutex cannot alias another function's). The
// documented hierarchy — store.DB → admission.Limiter (DESIGN.md
// "Lock-order contract") — is whatever keeps this graph acyclic.
//
// Method calls whose receiver type the syntax cannot resolve match
// functions by method name, restricted to packages the caller imports
// (plus its own), and excluding the caller's own receiver type —
// field delegation like n.db.Close() must not self-match the
// enclosing type's Close and fabricate a re-entrancy cycle. Function
// literals are walked as roots of their own that no call resolves to:
// their acquisitions contribute edges, but a goroutine's locks are
// not held on its spawner's path.
var LockCheck = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "forbid blocking calls and channel ops while a mutex is held, returns that leave a manually-locked " +
		"mutex locked (use defer on multi-return paths), cross-package lock-order cycles, " +
		"and calls whose chain blocks on a channel, Wait or Sleep while a mutex is held",
	Run: runLockCheck,
}

func runLockCheck(passes []*analysis.Pass) {
	t := newLockTable(passes)
	for _, pass := range passes {
		t.walkPackage(pass)
	}
	for _, f := range t.all {
		for i := range f.calls {
			f.calls[i].callees = t.candidates(f, f.calls[i])
		}
	}
	t.close()
	edges := t.edges()
	for _, f := range t.all {
		f.reportOrder(edges)
	}
}

// lockFunc is one function body's row of the table.
type lockFunc struct {
	pass *analysis.Pass
	// key names the body ("store.DB.Insert", "core..helper"); a
	// literal's key only scopes its local lock classes.
	key string
	pkg string // package base name
	// recv is the receiver type class ("store.DB"), empty for free
	// functions.
	recv     string
	acquires []lockSite
	calls    []lockSite
	// acq and blocks hold the body's own acquisitions and blocking
	// until close grows them to its call chain's.
	acq    map[string]bool
	blocks bool
}

// lockSite is one acquisition (lock set) or call (name set) with the
// lock classes held at it.
type lockSite struct {
	pos  token.Pos
	lock string
	// name is the callee's bare name; key its exact key when the
	// syntax resolved it ("store.DB.Insert"), empty to match by name.
	name, key string
	held      []string
	callees   []*lockFunc
}

// lockTable is the run's cross-package table.
type lockTable struct {
	all       []*lockFunc            // every body walked, literals included
	funcs     map[string]*lockFunc   // declared functions by key
	byName    map[string][]*lockFunc // declared functions by bare name
	imports   map[string][]string    // pkg base → imported bases
	importers map[string][]string    // pkg base → bases that import it
	ifaces    map[string]bool        // interface classes
	// links maps "<class>.<field>" to the field's type class, so a
	// receiver chain like db.wal resolves to store.walWriter in any
	// package.
	links map[string]string
}

// newLockTable records every package's imports, interface types and
// struct fields, which the walk needs to resolve calls.
func newLockTable(passes []*analysis.Pass) *lockTable {
	t := &lockTable{
		funcs: map[string]*lockFunc{}, byName: map[string][]*lockFunc{},
		imports: map[string][]string{}, importers: map[string][]string{},
		ifaces: map[string]bool{}, links: map[string]string{},
	}
	for _, pass := range passes {
		base := pkgBase(pass.PkgPath)
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				dep := pkgBase(strings.Trim(imp.Path.Value, `"`))
				if !contains(t.imports[base], dep) {
					t.imports[base] = append(t.imports[base], dep)
					t.importers[dep] = append(t.importers[dep], base)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				owner := base + "." + ts.Name.Name
				switch typ := ts.Type.(type) {
				case *ast.InterfaceType:
					// A call resolving to an interface method dispatches
					// to implementations supplied by the interface's
					// importers (the observer/callback shape cross-package
					// deadlocks ride in on).
					t.ifaces[owner] = true
				case *ast.StructType:
					for _, field := range typ.Fields.List {
						if cls := typeClass(base, field.Type); cls != "" {
							for _, name := range field.Names {
								t.links[owner+"."+name.Name] = cls
							}
						}
					}
				}
				return true
			})
		}
	}
	return t
}

// pkgBase returns the last slash segment of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// typeClass renders a receiver, parameter or field type expression as
// a class: *store.DB and store.DB both become "store.DB"; a bare *DB
// inside package store does too.
func typeClass(base string, t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return typeClass(base, t.X)
	case *ast.Ident:
		return base + "." + t.Name
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			return x.Name + "." + t.Sel.Name
		}
	case *ast.IndexExpr: // generic instantiation
		return typeClass(base, t.X)
	}
	return ""
}

// walkPackage walks every function body of pass: each declaration and
// each package-level function literal is a root with nothing held.
func (t *lockTable) walkPackage(pass *analysis.Pass) {
	base := pkgBase(pass.PkgPath)
	for fi, file := range pass.Files {
		w := lockWalk{t: t, pass: pass, file: file, lits: new(int)}
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return false
				}
				key, recv, typeOf := base+".."+fn.Name.Name, "", map[string]string{}
				if fn.Recv != nil {
					recv = typeClass(base, fn.Recv.List[0].Type)
					key = recv + "." + fn.Name.Name
					for _, id := range fn.Recv.List[0].Names {
						typeOf[id.Name] = recv
					}
				}
				f := w.root(key, recv, typeOf, fn.Type, fn.Body)
				t.funcs[key] = f
				t.byName[fn.Name.Name] = append(t.byName[fn.Name.Name], f)
				return false
			case *ast.FuncLit: // a package-level initializer
				*w.lits++
				w.root(fmt.Sprintf("%s.$f%d.lit%d", base, fi, *w.lits), "", map[string]string{}, fn.Type, fn.Body)
				return false
			}
			return true
		})
	}
}

// heldLock is one mutex held on the current textual path.
type heldLock struct {
	pos      token.Pos
	class    string
	deferred bool // released by a registered defer
}

// heldSet tracks lock state along one textual path, keyed by the
// receiver as written. locks is cloned at branch points; deferredOnce
// is function-wide and shared across clones — once `defer
// mu.Unlock()` has executed, it releases every later re-acquisition of
// mu at function exit, so re-locks after an unlock/relock dance stay
// defer-protected.
type heldSet struct {
	locks        map[string]*heldLock
	deferredOnce map[string]bool
}

func (h heldSet) clone() heldSet {
	c := heldSet{locks: make(map[string]*heldLock, len(h.locks)), deferredOnce: h.deferredOnce}
	for k, v := range h.locks {
		c.locks[k] = v
	}
	return c
}

// classes returns the held lock classes in order.
func (h heldSet) classes() []string {
	if len(h.locks) == 0 {
		return nil
	}
	set := make(map[string]bool, len(h.locks))
	for _, l := range h.locks {
		set[l.class] = true
	}
	return inOrder(set)
}

// lockWalk walks one function body, reporting per-site findings
// through pass and filling the body's row, fn.
type lockWalk struct {
	t      *lockTable
	pass   *analysis.Pass
	file   *ast.File
	lits   *int              // the file's literal counter
	fn     *lockFunc         // the body being walked
	typeOf map[string]string // receiver/parameter ident → type class
}

// root walks body as its own root, with nothing held, and adds its row
// to the table.
func (w lockWalk) root(key, recv string, typeOf map[string]string, ftype *ast.FuncType, body *ast.BlockStmt) *lockFunc {
	w.fn = &lockFunc{pass: w.pass, key: key, pkg: pkgBase(w.pass.PkgPath), recv: recv, acq: map[string]bool{}}
	w.typeOf = typeOf
	for _, p := range ftype.Params.List {
		if cls := typeClass(w.fn.pkg, p.Type); cls != "" {
			for _, id := range p.Names {
				typeOf[id.Name] = cls
			}
		}
	}
	w.block(body.List, heldSet{locks: map[string]*heldLock{}, deferredOnce: map[string]bool{}})
	w.t.all = append(w.t.all, w.fn)
	return w.fn
}

// lit walks a nested function literal as its own root: nothing held,
// and a key no call resolves to, so its acquisitions make edges but
// never count as the enclosing function's. It sees the enclosing
// function's typed identifiers.
func (w lockWalk) lit(fl *ast.FuncLit) {
	*w.lits++
	typeOf := make(map[string]string, len(w.typeOf))
	for k, v := range w.typeOf {
		typeOf[k] = v
	}
	w.root(fmt.Sprintf("%s.lit%d", w.fn.key, *w.lits), w.fn.recv, typeOf, fl.Type, fl.Body)
}

// block walks stmts in order. Branch bodies are walked with a cloned
// set: an Unlock inside a branch releases for that branch only,
// matching the common "if fast-path { unlock; return }" shape without
// path explosion.
func (w lockWalk) block(stmts []ast.Stmt, held heldSet) {
	for _, stmt := range stmts {
		w.stmt(stmt, held)
	}
}

func (w lockWalk) stmt(stmt ast.Stmt, held heldSet) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, op, ok := lockOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				cls := w.lockClass(recv)
				w.fn.acquires = append(w.fn.acquires, lockSite{pos: s.Pos(), lock: cls, held: held.classes()})
				w.fn.acq[cls] = true
				held.locks[recv] = &heldLock{pos: s.Pos(), class: cls, deferred: held.deferredOnce[recv]}
			case "Unlock", "RUnlock":
				delete(held.locks, recv)
			}
			return
		}
		w.expr(s.X, held, true)
	case *ast.DeferStmt:
		if recv, op, ok := lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			// A deferred release: the lock stays held on this path.
			if l := held.locks[recv]; l != nil {
				l.deferred = true
			}
			held.deferredOnce[recv] = true
			return
		}
		// The deferred call runs at exit: it joins the call graph but
		// is no blocking site here.
		w.expr(s.Call, held, false)
	case *ast.ReturnStmt:
		w.exprs(s.Results, held)
		for _, recv := range inOrder(held.locks) {
			if l := held.locks[recv]; !l.deferred {
				w.pass.Reportf(s.Pos(),
					"return leaves %s locked (acquired at line %d); release it on this path or use defer %s.Unlock()",
					recv, w.pass.Fset.Position(l.pos).Line, recv)
			}
		}
	case *ast.SendStmt:
		w.fn.blocks = true
		w.blocking(s.Pos(), held, "channel send")
		w.expr(s.Value, held, true)
	case *ast.SelectStmt:
		w.blocking(s.Pos(), held, "select")
		if !hasDefault(s) {
			w.fn.blocks = true
		}
		for _, c := range s.Body.List {
			w.block(c.(*ast.CommClause).Body, held.clone())
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held, true)
		w.block(s.Body.List, held.clone())
		if s.Else != nil {
			w.stmt(s.Else, held.clone())
		}
	case *ast.BlockStmt:
		w.block(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held, true)
		w.block(s.Body.List, held.clone())
	case *ast.RangeStmt:
		w.expr(s.X, held, true)
		w.block(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Tag, held, true)
		w.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.clauses(s.Body, held)
	case *ast.AssignStmt:
		w.exprs(s.Rhs, held)
	case *ast.GoStmt:
		// The goroutine holds none of the spawner's locks: the literals
		// it runs are roots of their own.
		ast.Inspect(s.Call, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				w.lit(fl)
				return false
			}
			return true
		})
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values, held)
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held, true)
	}
}

// clauses walks each case body of a switch with its own copy of held.
func (w lockWalk) clauses(body *ast.BlockStmt, held heldSet) {
	for _, c := range body.List {
		w.block(c.(*ast.CaseClause).Body, held.clone())
	}
}

// hasDefault reports whether a select has a default case, so it
// cannot block.
func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

func (w lockWalk) exprs(es []ast.Expr, held heldSet) {
	for _, e := range es {
		w.expr(e, held, true)
	}
}

// expr records the calls and blocking operations in e. With perSite it
// also reports each as blocking under the held locks.
func (w lockWalk) expr(e ast.Expr, held heldSet, perSite bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.lit(x) // deferred or escaping: not on this path
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.fn.blocks = true
				if perSite {
					w.blocking(x.Pos(), held, "channel receive")
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && perSite && lockBlockingCalls[sel.Sel.Name] {
				w.blocking(x.Pos(), held, analysis.ExprString(x.Fun)+" call")
			}
			name, key := w.resolveCall(x)
			if name == "" {
				return true
			}
			if chainBlockingCalls[name] && !isOnceDo(x) {
				w.fn.blocks = true
			}
			w.fn.calls = append(w.fn.calls, lockSite{pos: x.Pos(), name: name, key: key, held: held.classes()})
		}
		return true
	})
}

// blocking reports one diagnostic per held mutex for a blocking
// operation at pos.
func (w lockWalk) blocking(pos token.Pos, held heldSet, what string) {
	for _, recv := range inOrder(held.locks) {
		w.pass.Reportf(pos,
			"%s while %s is held; release the lock before blocking (copy what you need under the lock)",
			what, recv)
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

// lockClass names the lock acquired by recv (the receiver text of a
// Lock call, e.g. "s.mu" or "c.link.mu"). Rooted at a typed
// identifier it becomes "<class>.<tail>"; otherwise it is scoped to
// the enclosing function (a true local cannot alias another
// function's mutex).
func (w lockWalk) lockClass(recv string) string {
	root, tail, _ := strings.Cut(recv, ".")
	if cls, ok := w.typeOf[root]; ok {
		if tail == "" {
			return cls
		}
		return cls + "." + tail
	}
	return w.fn.key + ":" + recv
}

// isOnceDo recognizes the sync.Once.Do shape — bounded one-time
// initialization, not the open-ended blocking the Do entry of
// chainBlockingCalls exists for (client.Do).
func isOnceDo(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" {
		return false
	}
	recv := analysis.ExprString(sel.X)
	last := recv[strings.LastIndex(recv, ".")+1:]
	return strings.HasSuffix(last, "once") || strings.HasSuffix(last, "Once")
}

// resolveCall names a call target. For pkg.Fn with an import-table
// qualifier, x.Method with a typed receiver identifier, or a receiver
// chain that resolves through the struct links (db.wal.Close →
// store.walWriter.Close), the exact key is returned; otherwise only
// the bare name.
func (w lockWalk) resolveCall(call *ast.CallExpr) (name, key string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Obj != nil && fun.Obj.Kind != ast.Fun {
			return "", "" // a local func value; unresolvable
		}
		switch fun.Name {
		case "len", "cap", "append", "make", "new", "copy", "delete", "close",
			"panic", "recover", "print", "println", "min", "max",
			"string", "int", "int32", "int64", "uint32", "uint64", "float64", "byte", "rune", "bool", "error", "any":
			return "", "" // builtins and conversions carry no lock behavior
		}
		return fun.Name, w.fn.pkg + ".." + fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok && x.Obj == nil && imported(w.file, x.Name) {
			return fun.Sel.Name, x.Name + ".." + fun.Sel.Name // pkg.Fn: exact cross-package key
		}
		if cls := w.classOf(fun.X); cls != "" {
			return fun.Sel.Name, cls + "." + fun.Sel.Name
		}
		return fun.Sel.Name, ""
	}
	return "", ""
}

// classOf resolves a receiver chain (db.wal) to the class of its final
// value through the typed identifiers and the struct links; "" at any
// miss leaves the call to bare-name matching.
func (w lockWalk) classOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return w.typeOf[e.Name]
	case *ast.SelectorExpr:
		if cls := w.classOf(e.X); cls != "" {
			return w.t.links[cls+"."+e.Sel.Name]
		}
	case *ast.ParenExpr:
		return w.classOf(e.X)
	}
	return ""
}

// imported reports whether name is an import qualifier of f.
func imported(f *ast.File, name string) bool {
	for _, imp := range f.Imports {
		if imp.Name != nil {
			if imp.Name.Name == name {
				return true
			}
			continue
		}
		if pkgBase(strings.Trim(imp.Path.Value, `"`)) == name {
			return true
		}
	}
	return false
}

// leafIfaces are interface classes whose implementations are I/O
// leaves by contract: the vfs seam's File/FS are implemented only by
// the os passthrough and the in-memory fault injector, neither of
// which calls back into the packages that use them. Dispatching a
// vfs.File.Close by name to every Close method in vfs's importers
// (store.DB.Close, ...) would fabricate re-entrancy cycles that no
// execution can take, so these classes are resolution dead ends —
// like a concrete foreign type. Direct fsync-under-lock at such call
// sites is still policed by the per-site check.
var leafIfaces = map[string]bool{"vfs.File": true, "vfs.FS": true}

// candidates resolves one call site of f to the functions it may run.
// An exact key matches directly. A key naming an interface method
// dispatches to same-named methods in packages that import the
// interface's package (implementations flow from importers — the
// callback shape). Bare names match every function with that name in
// the caller's package or its imports. Both name-based modes exclude
// the caller's own receiver type: field delegation like n.db.Close()
// must not self-match the enclosing type's Close and fabricate a
// re-entrancy cycle. (Exact keys are exempt — a resolved same-type
// call is real re-entrancy and must be seen.)
func (t *lockTable) candidates(f *lockFunc, c lockSite) []*lockFunc {
	if c.key == "" {
		return t.byNameIn(c.name, f.recv, append([]string{f.pkg}, t.imports[f.pkg]...))
	}
	if g := t.funcs[c.key]; g != nil {
		return []*lockFunc{g}
	}
	cls := c.key[:strings.LastIndex(c.key, ".")]
	if !t.ifaces[cls] || leafIfaces[cls] {
		return nil // a concrete foreign type (os.File etc.) or an I/O leaf: dead end
	}
	ifacePkg := cls[:strings.Index(cls, ".")]
	return t.byNameIn(c.name, f.recv, append([]string{ifacePkg}, t.importers[ifacePkg]...))
}

// byNameIn returns the declared functions named name whose package is
// in scope, excluding receivers of type exclRecv.
func (t *lockTable) byNameIn(name, exclRecv string, scope []string) []*lockFunc {
	var out []*lockFunc
	for _, g := range t.byName[name] {
		if contains(scope, g.pkg) && (exclRecv == "" || g.recv != exclRecv) {
			out = append(out, g)
		}
	}
	return out
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// close grows every row's acquisitions and blocking to those of its
// call chain, by fixpoint over the call graph (cycle-safe).
func (t *lockTable) close() {
	for changed := true; changed; {
		changed = false
		for _, f := range t.all {
			for _, c := range f.calls {
				for _, g := range c.callees {
					for l := range g.acq {
						if !f.acq[l] {
							f.acq[l] = true
							changed = true
						}
					}
					if g.blocks && !f.blocks {
						f.blocks = true
						changed = true
					}
				}
			}
		}
	}
}

// edges builds the global lock-order edge set: held → acquired.
func (t *lockTable) edges() map[string]map[string]bool {
	out := map[string]map[string]bool{}
	add := func(from, to string) {
		if out[from] == nil {
			out[from] = map[string]bool{}
		}
		out[from][to] = true
	}
	for _, f := range t.all {
		for _, a := range f.acquires {
			for _, h := range a.held {
				add(h, a.lock)
			}
		}
		for _, c := range f.calls {
			for _, g := range c.callees {
				for l := range g.acq {
					for _, h := range c.held {
						add(h, l)
					}
				}
			}
		}
	}
	return out
}

// reportOrder reports f's acquisitions that close a lock-order cycle
// and its calls under a lock that close one or block.
func (f *lockFunc) reportOrder(edges map[string]map[string]bool) {
	for _, a := range f.acquires {
		for _, h := range a.held {
			if cyc := pathBack(edges, a.lock, h); cyc != nil {
				f.pass.Reportf(a.pos,
					"acquiring %s while holding %s creates a lock-order cycle (%s → %s); acquire locks in the documented order",
					a.lock, h, h, strings.Join(cyc, " → "))
			}
		}
	}
	for _, c := range f.calls {
		for _, g := range c.callees {
			locks := inOrder(g.acq)
			for _, h := range c.held {
				cycleHit := false
				for _, l := range locks {
					if cyc := pathBack(edges, l, h); cyc != nil {
						f.pass.Reportf(c.pos,
							"call to %s acquires %s while %s is held, creating a lock-order cycle (%s → %s)",
							g.key, l, h, h, strings.Join(cyc, " → "))
						cycleHit = true
						break
					}
				}
				if !cycleHit && g.blocks {
					f.pass.Reportf(c.pos,
						"call to %s blocks (channel op or Wait in its call chain) while %s is held; "+
							"release the lock before a channel op, Wait or Sleep", g.key, h)
				}
			}
		}
	}
}

// pathBack finds a shortest edge path from 'from' back to 'to' (BFS),
// or nil when unreachable. from == to is the trivial (re-entrant)
// cycle.
func pathBack(edges map[string]map[string]bool, from, to string) []string {
	if from == to {
		return []string{from}
	}
	prev := map[string]string{from: from}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range inOrder(edges[cur]) {
			if _, seen := prev[n]; seen {
				continue
			}
			prev[n] = cur
			if n == to {
				var path []string
				for c := n; c != from; c = prev[c] {
					path = append(path, c)
				}
				path = append(path, from)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, n)
		}
	}
	return nil
}

// inOrder returns m's keys sorted, so diagnostics come out the same
// on every run.
func inOrder[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
