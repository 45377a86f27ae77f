package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"drugtree/internal/lint/analysis"
)

// LockOrder is the interprocedural half of the mutex discipline:
// where lockcheck polices one function body, lockorder follows calls
// across package boundaries through exported per-function facts. For
// every function it collects which lock classes it acquires (and
// which it holds at each acquisition and call site), which functions
// it calls, and whether it blocks (channel op, select without
// default, WaitGroup wait, or a known blocking call). The analysis
// phase merges every package's facts, closes acquisition and blocking
// over the call graph, and reports:
//
//   - lock-order cycles: acquiring (directly or via any call chain)
//     lock B while holding lock A when some chain also acquires A
//     while holding B — the two-thread deadlock shape. Re-entrant
//     acquisition (A while holding A) is the one-thread special case.
//   - blocking calls under a lock: calling a function whose
//     transitive closure performs a channel op or Wait while a mutex
//     is held.
//
// Lock identity is a class, not an instance: "store.DB.mu" names
// the mu field of every store.DB. Classes come from the receiver
// or parameter type when the lock expression roots there ("db.mu" in a
// *DB method), and are function-scoped for true locals (a local
// mutex cannot alias another function's). The documented hierarchy —
// store.DB → admission.Limiter
// (DESIGN.md "Lock-order contract") — is whatever keeps this graph
// acyclic.
//
// Method calls whose receiver type the syntax cannot resolve match
// fact entries by method name, restricted to packages the caller
// imports (plus its own), and excluding the caller's own receiver
// type — field delegation like n.db.Close() must not self-match the
// enclosing type's Close and fabricate a re-entrancy cycle. Function
// literals are scanned as independent roots under uncallable keys:
// their acquisitions contribute edges, but a goroutine's locks are
// not held on its spawner's path.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "cross-package lock-acquisition graph must stay acyclic " +
		"(cycles are potential deadlocks), and no call chain may block on a channel or Wait while a mutex is held",
	Collect: collectLockOrder,
	Run:     runLockOrder,
}

// loFact is one function's exported lock behavior.
type loFact struct {
	// Recv is the receiver type class ("store.DB"), empty for free
	// functions.
	Recv string `json:",omitempty"`
	// Acquires lists each lock acquisition with the locks held at it.
	Acquires []loAcq `json:",omitempty"`
	// Calls lists each call site with the locks held at it.
	Calls []loCall `json:",omitempty"`
	// Blocks marks a direct blocking operation in the function body.
	Blocks bool `json:",omitempty"`
}

type loAcq struct {
	Lock string
	Held []string `json:",omitempty"`
}

type loCall struct {
	// Name is the bare function/method name.
	Name string
	// Key is the exact fact key when the callee resolved
	// syntactically ("store.DB.Insert"); empty means match by Name.
	Key  string   `json:",omitempty"`
	Held []string `json:",omitempty"`
}

// loSite is one acquisition or call with its source position — the
// analysis phase's rescan output, never serialized.
type loSite struct {
	pos  token.Pos
	kind string // "acquire" or "call"
	acq  loAcq
	call loCall
	recv string // enclosing function's receiver class
}

// importsFactPrefix keys the per-package import list fact.
const importsFactPrefix = "imports:"

// ifaceFactPrefix marks interface type declarations.
const ifaceFactPrefix = "iface:"

func collectLockOrder(pass *analysis.Pass) (map[string]string, error) {
	facts := make(map[string]string)
	base := pkgBase(pass.PkgPath)
	var imports []string
	seen := map[string]bool{}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			b := pkgBase(strings.Trim(imp.Path.Value, `"`))
			if !seen[b] {
				seen[b] = true
				imports = append(imports, b)
			}
		}
	}
	sort.Strings(imports)
	facts[importsFactPrefix+base] = strings.Join(imports, ",")
	// Struct-shape links let call receivers like ix.tree.Insert or
	// db.wal.Close resolve to exact fact keys instead of falling back to
	// bare-name matching.
	links := structLinks(pass)
	for k, v := range links {
		facts[k] = v
	}
	// Interface declarations: a call resolving to an interface method
	// dispatches to implementations supplied by the interface's
	// importers (the observer/callback shape cross-package deadlocks
	// ride in on), so the analysis phase needs to know which classes
	// are interfaces.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, isIface := ts.Type.(*ast.InterfaceType); isIface {
					facts[ifaceFactPrefix+base+"."+ts.Name.Name] = "1"
				}
			}
			return true
		})
	}
	scanLockOrderPkg(pass, links, func(key string, fact *loFact) {
		if len(fact.Acquires) == 0 && len(fact.Calls) == 0 && !fact.Blocks {
			return // nothing lock-relevant; keep the fact table lean
		}
		if b, err := json.Marshal(fact); err == nil {
			facts[key] = string(b)
		}
	}, nil)
	return facts, nil
}

// pkgBase returns the last slash segment of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// typeClass renders a receiver/parameter type expression as a lock
// class prefix: *store.DB and store.DB both become "store.DB"; a bare
// *DB inside package store does too.
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

// linkFactPrefix keys the struct-shape facts:
//
//	link:<pkg>.<T>.<field> = "ptr <class>" | "val <class>"
//
// They let a receiver chain like db.wal resolve to its owning type
// (store.walWriter) in any package.
const linkFactPrefix = "link:"

// builtinTypes are type names that terminate link chains.
var builtinTypes = map[string]bool{
	"bool": true, "byte": true, "rune": true, "string": true, "error": true, "any": true,
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true, "uintptr": true,
	"float32": true, "float64": true, "complex64": true, "complex128": true,
}

// fieldLink classifies a struct field type as a chain link: a named
// struct-ish type, reached by value or by pointer.
func fieldLink(base string, t ast.Expr) (class string, ptr bool) {
	switch t := t.(type) {
	case *ast.StarExpr:
		cls, _ := fieldLink(base, t.X)
		return cls, true
	case *ast.Ident:
		if builtinTypes[t.Name] {
			return "", false
		}
		return base + "." + t.Name, false
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			return x.Name + "." + t.Sel.Name, false
		}
	case *ast.IndexExpr: // generic instantiation
		return fieldLink(base, t.X)
	}
	return "", false
}

// structLinks builds the link facts for every struct declared in the
// pass's files.
func structLinks(pass *analysis.Pass) map[string]string {
	base := pkgBase(pass.PkgPath)
	links := make(map[string]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			owner := base + "." + ts.Name.Name
			for _, field := range st.Fields.List {
				cls, ptr := fieldLink(base, field.Type)
				if cls == "" {
					continue
				}
				kind := "val "
				if ptr {
					kind = "ptr "
				}
				for _, name := range field.Names {
					links[linkFactPrefix+owner+"."+name.Name] = kind + cls
				}
			}
			return true
		})
	}
	return links
}

// selChain flattens a pure identifier selector chain (a.b.c), or nil.
func selChain(e ast.Expr) []string {
	switch e := e.(type) {
	case *ast.Ident:
		return []string{e.Name}
	case *ast.SelectorExpr:
		if base := selChain(e.X); base != nil {
			return append(base, e.Sel.Name)
		}
	case *ast.ParenExpr:
		return selChain(e.X)
	}
	return nil
}

// loScope is the per-function naming context.
type loScope struct {
	base   string            // this package's base name
	fnKey  string            // fact key of the enclosing function
	recv   string            // receiver class, "" for free functions
	typeOf map[string]string // param/receiver ident → type class
	links  map[string]string // struct-shape link facts for chain resolution
	file   *ast.File
	emit   func(key string, fact *loFact) // receives nested-literal facts
	lits   *int                           // per-file counter for uncallable literal keys
}

// lockClass names the lock acquired by recvExpr (the receiver text of
// a Lock call, e.g. "s.mu" or "c.link.mu"). Rooted at a typed
// identifier it becomes "<class>.<tail>"; otherwise it is scoped to
// the enclosing function (a true local cannot alias another
// function's mutex).
func (sc *loScope) lockClass(recvExpr string) string {
	root, tail, _ := strings.Cut(recvExpr, ".")
	if cls, ok := sc.typeOf[root]; ok {
		if tail == "" {
			return cls
		}
		return cls + "." + tail
	}
	return sc.fnKey + ":" + recvExpr
}

// scanLockOrderPkg scans every function of the pass, emitting one
// fact per function (and per nested literal, under an uncallable
// key). When sink is non-nil every acquisition and call site is also
// appended to it with positions — the analysis phase's rescan.
func scanLockOrderPkg(pass *analysis.Pass, links map[string]string, emit func(string, *loFact), sink *[]loSite) {
	base := pkgBase(pass.PkgPath)
	for fi, f := range pass.Files {
		lits := 0
		file := f
		fileIdx := fi
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				if fl, isLit := n.(*ast.FuncLit); isLit {
					// Package-level literal (var initializer).
					lits++
					sc := newLoScope(base, file, fmt.Sprintf("%s.$f%d.lit%d", base, fileIdx, lits), "", nil, fl.Type, links, emit, &lits)
					scanLoFunc(sc, fl.Body, sink)
					return false
				}
				return true
			}
			recvClass := ""
			var recvNames []*ast.Ident
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				recvClass = typeClass(base, fn.Recv.List[0].Type)
				recvNames = fn.Recv.List[0].Names
			}
			key := base + ".." + fn.Name.Name
			if recvClass != "" {
				key = base + "." + recvClass[strings.LastIndex(recvClass, ".")+1:] + "." + fn.Name.Name
			}
			sc := newLoScope(base, file, key, recvClass, recvNames, fn.Type, links, emit, &lits)
			scanLoFunc(sc, fn.Body, sink)
			return false
		})
	}
}

func newLoScope(base string, file *ast.File, key, recvClass string, recvNames []*ast.Ident, ftype *ast.FuncType, links map[string]string, emit func(string, *loFact), lits *int) *loScope {
	sc := &loScope{base: base, fnKey: key, recv: recvClass, typeOf: map[string]string{}, links: links, file: file, emit: emit, lits: lits}
	for _, id := range recvNames {
		sc.typeOf[id.Name] = recvClass
	}
	if ftype != nil && ftype.Params != nil {
		for _, p := range ftype.Params.List {
			if cls := typeClass(base, p.Type); cls != "" {
				for _, id := range p.Names {
					sc.typeOf[id.Name] = cls
				}
			}
		}
	}
	return sc
}

// scanLoFunc walks one function body and emits its fact.
func scanLoFunc(sc *loScope, body *ast.BlockStmt, sink *[]loSite) {
	fact := &loFact{Recv: sc.recv}
	walkLockOrder(sc, fact, body.List, map[string]bool{}, sink)
	if sc.emit != nil {
		sc.emit(sc.fnKey, fact)
	}
}

// nestedLit scans a nested function literal as an independent root:
// empty held set, its own uncallable fact key (its acquisitions form
// edges, but calls never resolve to it, so its locks never count as
// acquired by the enclosing function — a goroutine's locks are not
// held on the spawner's path).
func (sc *loScope) nestedLit(fl *ast.FuncLit, sink *[]loSite) {
	if fl == nil {
		return
	}
	*sc.lits++
	sub := newLoScope(sc.base, sc.file, fmt.Sprintf("%s.lit%d", sc.fnKey, *sc.lits), sc.recv, nil, fl.Type, sc.links, sc.emit, sc.lits)
	// The literal closes over the enclosing scope's typed identifiers.
	for k, v := range sc.typeOf {
		sub.typeOf[k] = v
	}
	scanLoFunc(sub, fl.Body, sink)
}

func heldList(held map[string]bool) []string {
	if len(held) == 0 {
		return nil
	}
	out := make([]string, 0, len(held))
	for k := range held {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func cloneHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// walkLockOrder processes stmts in order, tracking held lock classes
// along the textual path with lockcheck's branch-cloning discipline.
func walkLockOrder(sc *loScope, fact *loFact, stmts []ast.Stmt, held map[string]bool, sink *[]loSite) {
	for _, stmt := range stmts {
		walkLockOrderStmt(sc, fact, stmt, held, sink)
	}
}

func walkLockOrderStmt(sc *loScope, fact *loFact, stmt ast.Stmt, held map[string]bool, sink *[]loSite) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, op, ok := lockOp(s.X); ok {
			cls := sc.lockClass(recv)
			switch op {
			case "Lock", "RLock":
				acq := loAcq{Lock: cls, Held: heldList(held)}
				fact.Acquires = append(fact.Acquires, acq)
				if sink != nil {
					*sink = append(*sink, loSite{pos: s.Pos(), kind: "acquire", acq: acq, recv: sc.recv})
				}
				held[cls] = true
			case "Unlock", "RUnlock":
				delete(held, cls)
			}
			return
		}
		lockOrderExpr(sc, fact, s.X, held, sink)
	case *ast.DeferStmt:
		if _, op, ok := lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return // deferred release: the lock stays held on this path
		}
		lockOrderExpr(sc, fact, s.Call, held, sink)
	case *ast.SendStmt:
		fact.Blocks = true
		lockOrderExpr(sc, fact, s.Value, held, sink)
	case *ast.SelectStmt:
		blocking := true
		for _, c := range s.Body.List {
			if comm, ok := c.(*ast.CommClause); ok && comm.Comm == nil {
				blocking = false // default case: the select cannot block
			}
		}
		if blocking {
			fact.Blocks = true
		}
		for _, c := range s.Body.List {
			if comm, ok := c.(*ast.CommClause); ok {
				walkLockOrder(sc, fact, comm.Body, cloneHeld(held), sink)
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockOrderStmt(sc, fact, s.Init, held, sink)
		}
		lockOrderExpr(sc, fact, s.Cond, held, sink)
		walkLockOrder(sc, fact, s.Body.List, cloneHeld(held), sink)
		if s.Else != nil {
			walkLockOrderStmt(sc, fact, s.Else, cloneHeld(held), sink)
		}
	case *ast.BlockStmt:
		walkLockOrder(sc, fact, s.List, held, sink)
	case *ast.ForStmt:
		if s.Init != nil {
			walkLockOrderStmt(sc, fact, s.Init, held, sink)
		}
		lockOrderExpr(sc, fact, s.Cond, held, sink)
		walkLockOrder(sc, fact, s.Body.List, cloneHeld(held), sink)
	case *ast.RangeStmt:
		lockOrderExpr(sc, fact, s.X, held, sink)
		walkLockOrder(sc, fact, s.Body.List, cloneHeld(held), sink)
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkLockOrderStmt(sc, fact, s.Init, held, sink)
		}
		lockOrderExpr(sc, fact, s.Tag, held, sink)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockOrder(sc, fact, cc.Body, cloneHeld(held), sink)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockOrder(sc, fact, cc.Body, cloneHeld(held), sink)
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lockOrderExpr(sc, fact, e, held, sink)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lockOrderExpr(sc, fact, e, held, sink)
		}
	case *ast.GoStmt:
		// The goroutine runs off this path with no inherited locks;
		// its body is an independent root.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sc.nestedLit(fl, sink)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lockOrderExpr(sc, fact, v, held, sink)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		walkLockOrderStmt(sc, fact, s.Stmt, held, sink)
	case *ast.IncDecStmt:
		lockOrderExpr(sc, fact, s.X, held, sink)
	}
}

// lockOrderExpr records call sites (with the current held set) and
// direct blocking operations inside expression e.
func lockOrderExpr(sc *loScope, fact *loFact, e ast.Expr, held map[string]bool, sink *[]loSite) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			sc.nestedLit(x, sink)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				fact.Blocks = true
			}
		case *ast.CallExpr:
			name, key := resolveCall(sc, x)
			if name == "" {
				return true
			}
			if loWaitCalls[name] && !isOnceDo(x) {
				fact.Blocks = true
			}
			call := loCall{Name: name, Key: key, Held: heldList(held)}
			fact.Calls = append(fact.Calls, call)
			if sink != nil {
				*sink = append(*sink, loSite{pos: x.Pos(), kind: "call", call: call, recv: sc.recv})
			}
		}
		return true
	})
}

// loWaitCalls are the named operations lockorder treats as blocking
// when closing over the call graph: unbounded synchronization waits
// (sync.WaitGroup.Wait, sync.Cond.Wait) and open-ended request
// dispatch (client.Do). Channel operations are detected structurally.
// The broader lockBlockingCalls list (Sync, Fetch, Query, ...) is
// deliberately NOT reused here: bounded disk/network I/O under a lock
// is lockcheck's per-site concern, while lockorder hunts
// cross-function deadlock shapes — its contract is "channel op or
// Wait in the call chain" (see the Budget note in lint.go). Folding
// fsync into the closure would flag every WAL group-commit reachable
// under a coordinator mutex, which is the durability design, not a
// deadlock.
var loWaitCalls = map[string]bool{"Wait": true, "Do": true}

// isOnceDo recognizes the sync.Once.Do shape — bounded one-time
// initialization, not the open-ended blocking the Do entry of
// lockBlockingCalls exists for (client.Do).
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
// chain that resolves through the struct-shape links (db.wal.Close →
// store.walWriter.Close), the exact fact key is returned; otherwise
// only the bare name.
func resolveCall(sc *loScope, call *ast.CallExpr) (name, key string) {
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
		return fun.Name, sc.base + ".." + fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if x.Obj == nil && imported(sc.file, x.Name) {
				// pkg.Fn form: exact cross-package key.
				return fun.Sel.Name, x.Name + ".." + fun.Sel.Name
			}
		}
		if chain := selChain(fun.X); chain != nil {
			if cls, ok := sc.resolveRecvChain(chain); ok {
				return fun.Sel.Name, cls + "." + fun.Sel.Name
			}
		}
		return fun.Sel.Name, ""
	}
	return "", ""
}

// resolveRecvChain resolves a receiver chain (["db","wal"]) to the
// class of its final value via the typed-identifier table and the
// struct-shape links. A miss at any step returns false — the caller
// falls back to bare-name matching.
func (sc *loScope) resolveRecvChain(chain []string) (string, bool) {
	cls, ok := sc.typeOf[chain[0]]
	if !ok {
		return "", false
	}
	for _, field := range chain[1:] {
		link, has := sc.links[linkFactPrefix+cls+"."+field]
		if !has {
			return "", false
		}
		cls = link[4:]
	}
	return cls, true
}

// imported reports whether name is an import qualifier of f.
func imported(f *ast.File, name string) bool {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if imp.Name != nil {
			if imp.Name.Name == name {
				return true
			}
			continue
		}
		if pkgBase(p) == name {
			return true
		}
	}
	return false
}

// ---- analysis phase ----

// loTable is the decoded global fact table.
type loTable struct {
	funcs     map[string]*loFact
	byName    map[string][]string // bare name → fact keys
	imports   map[string][]string // pkg base → imported bases
	importers map[string][]string // pkg base → bases that import it
	ifaces    map[string]bool     // interface classes
	links     map[string]string   // merged struct-shape links
}

func decodeLockOrderFacts(facts map[string]string) *loTable {
	t := &loTable{
		funcs: map[string]*loFact{}, byName: map[string][]string{},
		imports: map[string][]string{}, importers: map[string][]string{},
		ifaces: map[string]bool{}, links: map[string]string{},
	}
	for _, key := range analysis.SortedKeys(facts) {
		if strings.HasPrefix(key, importsFactPrefix) {
			base := strings.TrimPrefix(key, importsFactPrefix)
			if facts[key] != "" {
				t.imports[base] = strings.Split(facts[key], ",")
				for _, dep := range t.imports[base] {
					t.importers[dep] = append(t.importers[dep], base)
				}
			}
			continue
		}
		if strings.HasPrefix(key, ifaceFactPrefix) {
			t.ifaces[strings.TrimPrefix(key, ifaceFactPrefix)] = true
			continue
		}
		if strings.HasPrefix(key, linkFactPrefix) {
			t.links[key] = facts[key]
			continue
		}
		var f loFact
		if err := json.Unmarshal([]byte(facts[key]), &f); err != nil {
			continue
		}
		t.funcs[key] = &f
		if strings.Contains(key, ".lit") || strings.Contains(key, ".$f") {
			continue // uncallable literal roots: edges yes, call targets no
		}
		name := key[strings.LastIndex(key, ".")+1:]
		t.byName[name] = append(t.byName[name], key)
	}
	return t
}

// loLeafIfaces are interface classes whose implementations are I/O
// leaves by contract: the vfs seam's File/FS are implemented only by
// the os passthrough and the in-memory fault injector, neither of
// which calls back into the packages that use them. Dispatching a
// vfs.File.Close by name to every Close method in vfs's importers
// (store.DB.Close, ...) would fabricate re-entrancy cycles that no
// execution can take, so these classes are resolution dead ends —
// like a concrete foreign type. Direct fsync-under-lock at such call
// sites is still policed per-site by lockcheck.
var loLeafIfaces = map[string]bool{"vfs.File": true, "vfs.FS": true}

// candidates resolves one call fact to fact-table keys. An exact key
// matches directly. A key naming an interface method dispatches to
// same-named methods in packages that import the interface's package
// (implementations flow from importers — the callback shape). Bare
// names match every entry with that method name in the caller's
// package or its imports. Both name-based modes exclude the caller's
// own receiver type: field delegation like n.db.Close() must not
// self-match the enclosing type's Close and fabricate a re-entrancy
// cycle. (Exact keys are exempt — a resolved same-type call is real
// re-entrancy and must be seen.)
func (t *loTable) candidates(callerPkg, callerRecv string, c loCall) []string {
	if c.Key != "" {
		if _, ok := t.funcs[c.Key]; ok {
			return []string{c.Key}
		}
		cls := c.Key[:strings.LastIndex(c.Key, ".")]
		if !t.ifaces[cls] {
			return nil // a concrete foreign type (os.File etc.): dead end
		}
		if loLeafIfaces[cls] {
			return nil // an I/O-leaf interface: implementations never call up
		}
		ifacePkg := cls[:strings.Index(cls, ".")]
		scope := append([]string{ifacePkg}, t.importers[ifacePkg]...)
		return t.byNameIn(c.Name, callerRecv, scope)
	}
	scope := append([]string{callerPkg}, t.imports[callerPkg]...)
	return t.byNameIn(c.Name, callerRecv, scope)
}

// byNameIn returns the fact keys for methods named name whose package
// is in scope, excluding receivers of type exclRecv.
func (t *loTable) byNameIn(name, exclRecv string, scope []string) []string {
	var out []string
	for _, key := range t.byName[name] {
		base := key[:strings.Index(key, ".")]
		if !contains(scope, base) {
			continue
		}
		if exclRecv != "" && t.funcs[key].Recv == exclRecv {
			continue
		}
		out = append(out, key)
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

// closures computes, per function key, the transitive set of lock
// classes it may acquire and whether it may block, by fixpoint over
// the call graph (cycle-safe).
func (t *loTable) closures() (acq map[string]map[string]bool, blocks map[string]bool) {
	acq = map[string]map[string]bool{}
	blocks = map[string]bool{}
	keys := make([]string, 0, len(t.funcs))
	for k := range t.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		acq[k] = map[string]bool{}
		for _, a := range t.funcs[k].Acquires {
			acq[k][a.Lock] = true
		}
		blocks[k] = t.funcs[k].Blocks
	}
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			f := t.funcs[k]
			callerPkg := k[:strings.Index(k, ".")]
			for _, c := range f.Calls {
				for _, cand := range t.candidates(callerPkg, f.Recv, c) {
					for l := range acq[cand] {
						if !acq[k][l] {
							acq[k][l] = true
							changed = true
						}
					}
					if blocks[cand] && !blocks[k] {
						blocks[k] = true
						changed = true
					}
				}
			}
		}
	}
	return acq, blocks
}

// edges builds the global lock-order edge set: held → acquired.
func (t *loTable) edges(acq map[string]map[string]bool) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	add := func(from, to string) {
		if out[from] == nil {
			out[from] = map[string]bool{}
		}
		out[from][to] = true
	}
	keys := make([]string, 0, len(t.funcs))
	for k := range t.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := t.funcs[k]
		callerPkg := k[:strings.Index(k, ".")]
		for _, a := range f.Acquires {
			for _, h := range a.Held {
				add(h, a.Lock)
			}
		}
		for _, c := range f.Calls {
			if len(c.Held) == 0 {
				continue
			}
			for _, cand := range t.candidates(callerPkg, f.Recv, c) {
				for l := range acq[cand] {
					for _, h := range c.Held {
						add(h, l)
					}
				}
			}
		}
	}
	return out
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
		next := make([]string, 0, len(edges[cur]))
		for n := range edges[cur] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
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

func runLockOrder(pass *analysis.Pass) (interface{}, error) {
	table := decodeLockOrderFacts(pass.Facts)
	acqClosure, blockClosure := table.closures()
	edges := table.edges(acqClosure)
	base := pkgBase(pass.PkgPath)

	reported := map[string]bool{}
	report := func(pos token.Pos, msg string) {
		k := fmt.Sprintf("%d:%s", pos, msg)
		if reported[k] {
			return
		}
		reported[k] = true
		pass.Reportf(pos, "%s", msg)
	}

	var sites []loSite
	scanLockOrderPkg(pass, table.links, nil, &sites)
	for _, site := range sites {
		switch site.kind {
		case "acquire":
			for _, h := range site.acq.Held {
				if cyc := pathBack(edges, site.acq.Lock, h); cyc != nil {
					report(site.pos, fmt.Sprintf(
						"acquiring %s while holding %s creates a lock-order cycle (%s → %s); acquire locks in the documented order",
						site.acq.Lock, h, h, strings.Join(cyc, " → ")))
				}
			}
		case "call":
			if len(site.call.Held) == 0 {
				continue
			}
			for _, cand := range table.candidates(base, site.recv, site.call) {
				locks := make([]string, 0, len(acqClosure[cand]))
				for l := range acqClosure[cand] {
					locks = append(locks, l)
				}
				sort.Strings(locks)
				for _, h := range site.call.Held {
					cycleHit := false
					for _, l := range locks {
						if cyc := pathBack(edges, l, h); cyc != nil {
							report(site.pos, fmt.Sprintf(
								"call to %s acquires %s while %s is held, creating a lock-order cycle (%s → %s)",
								cand, l, h, h, strings.Join(cyc, " → ")))
							cycleHit = true
							break
						}
					}
					if !cycleHit && blockClosure[cand] {
						report(site.pos, fmt.Sprintf(
							"call to %s blocks (channel op or Wait in its call chain) while %s is held; release the lock first",
							cand, h))
					}
				}
			}
		}
	}
	return nil, nil
}
