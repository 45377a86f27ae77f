package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"drugtree/internal/lint/analysis"
)

// AtomicCheck enforces all-or-nothing atomicity: a struct field
// touched through sync/atomic anywhere in the tree must be accessed
// atomically everywhere. A single plain load racing an atomic store
// is still a data race — the atomic call on one side buys nothing —
// and it is exactly the mistake that survives until a -race run on
// the right interleaving.
//
// The collection phase exports two fact families per package:
//
//	link:<pkg>.<T>.<field>   = "ptr <class>" | "val <class>"
//	atomic:<pkg>.<T>.<field> = "rw"
//
// link facts describe struct shape (which fields are pointer links,
// which are embedded values), so a textual access chain like
// ec.stats.RowsScanned can be resolved to its owning type
// (query.ExecStats.RowsScanned) in any package. atomic facts mark the
// fields appearing as &chain arguments of sync/atomic calls.
//
// The analysis phase flags a plain read or write of an atomic-marked
// field when the access chain provably reaches shared memory: the
// root is a pointer receiver/parameter, or some link in the chain is
// a pointer field. Chains rooted at value copies or at locally
// constructed, not-yet-published objects (x := T{}, x := &T{} in the
// same function) are exempt — a private copy cannot race. It also
// flags `*p` dereference-copies of any struct type carrying atomic
// fields: the copy tears, and its plain fields launder the atomic
// discipline away (the snapshot must be taken field-by-field with
// atomic loads).
var AtomicCheck = &analysis.Analyzer{
	Name: "atomiccheck",
	Doc: "a field accessed via sync/atomic anywhere must be accessed atomically everywhere, " +
		"and structs with atomic fields must not be copied by dereference",
	Collect: collectAtomic,
	Run:     runAtomic,
}

const (
	linkFactPrefix   = "link:"
	atomicFactPrefix = "atomic:"
)

// atomicBuiltins are type names that terminate link chains.
var atomicBuiltins = map[string]bool{
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
		if atomicBuiltins[t.Name] {
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

// atomVar is one resolvable chain root in a function scope.
type atomVar struct {
	class string
	ptr   bool
	// fresh marks a pointer constructed in this function (&T{...}):
	// private until published, so plain initialization is fine.
	fresh bool
}

// atomScope maps identifiers to their classes for one function.
type atomScope map[string]atomVar

func (s atomScope) clone() atomScope {
	c := make(atomScope, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// bindParams adds receiver/parameter classes to the scope.
func bindParams(base string, s atomScope, recv *ast.FieldList, ftype *ast.FuncType) {
	bind := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, p := range fl.List {
			t := p.Type
			ptr := false
			if st, ok := t.(*ast.StarExpr); ok {
				t = st.X
				ptr = true
			}
			cls := typeClass(base, t)
			if cls == "" {
				continue
			}
			for _, id := range p.Names {
				s[id.Name] = atomVar{class: cls, ptr: ptr}
			}
		}
	}
	bind(recv)
	if ftype != nil {
		bind(ftype.Params)
	}
}

// bindLocals adds `x := T{}` / `x := &T{}` / `var x T` declarations.
func bindLocals(base string, s atomScope, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false // separate scope
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if i >= len(st.Lhs) {
					break
				}
				id, ok := st.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				switch r := rhs.(type) {
				case *ast.CompositeLit:
					if cls := typeClass(base, r.Type); cls != "" {
						s[id.Name] = atomVar{class: cls}
					}
				case *ast.UnaryExpr:
					if cl, ok := r.X.(*ast.CompositeLit); ok {
						if cls := typeClass(base, cl.Type); cls != "" {
							s[id.Name] = atomVar{class: cls, ptr: true, fresh: true}
						}
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || vs.Type == nil {
						continue
					}
					t, ptr := vs.Type, false
					if star, isStar := t.(*ast.StarExpr); isStar {
						t, ptr = star.X, true
					}
					if cls := typeClass(base, t); cls != "" {
						for _, id := range vs.Names {
							s[id.Name] = atomVar{class: cls, ptr: ptr}
						}
					}
				}
			}
		}
		return true
	})
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

// resolveChain follows chain through the link table: returns the
// owning class of the final field, the final field name, whether the
// chain reaches shared memory, and the class of the full chain's
// value (for dereference checks).
func resolveChain(scope atomScope, links map[string]string, chain []string) (owner, field string, shared bool, valueClass string, ok bool) {
	root, found := scope[chain[0]]
	if !found {
		return "", "", false, "", false
	}
	shared = root.ptr && !root.fresh
	owner = root.class
	valueClass = root.class
	for i := 1; i < len(chain); i++ {
		link, has := links[linkFactPrefix+owner+"."+chain[i]]
		if i == len(chain)-1 {
			field = chain[i]
			if has {
				valueClass = link[4:]
				if strings.HasPrefix(link, "ptr ") {
					// The chain's value is a pointer: dereferencing it
					// reaches the shared pointee even off a value copy.
					shared = true
				}
			} else {
				valueClass = ""
			}
			return owner, field, shared, valueClass, true
		}
		if !has {
			return "", "", false, "", false
		}
		if strings.HasPrefix(link, "ptr ") {
			shared = true
		}
		owner = link[4:]
	}
	return owner, "", shared, valueClass, true
}

// atomicCall reports whether call is a sync/atomic function and, if
// so, returns its address arguments' selector chains.
func atomicCall(f *ast.File, call *ast.CallExpr) (chains [][]string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false
	}
	x, isIdent := sel.X.(*ast.Ident)
	if !isIdent || x.Obj != nil {
		return nil, false
	}
	name, has := analysis.ImportName(f, "sync/atomic")
	if !has || x.Name != name {
		return nil, false
	}
	for _, arg := range call.Args {
		if ue, isAddr := arg.(*ast.UnaryExpr); isAddr && ue.Op == token.AND {
			if c := selChain(ue.X); c != nil {
				chains = append(chains, c)
			}
		}
	}
	return chains, true
}

func collectAtomic(pass *analysis.Pass) (map[string]string, error) {
	base := pkgBase(pass.PkgPath)
	facts := structLinks(pass)
	for _, f := range pass.Files {
		file := f
		var scan func(recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt, outer atomScope)
		scan = func(recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt, outer atomScope) {
			scope := outer.clone()
			bindParams(base, scope, recv, ftype)
			bindLocals(base, scope, body)
			ast.Inspect(body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncLit:
					scan(nil, x.Type, x.Body, scope)
					return false
				case *ast.CallExpr:
					chains, isAtomic := atomicCall(file, x)
					if !isAtomic {
						return true
					}
					for _, chain := range chains {
						if owner, field, _, _, ok := resolveChain(scope, facts, chain); ok && field != "" {
							facts[atomicFactPrefix+owner+"."+field] = "rw"
						}
					}
					return false
				}
				return true
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				scan(fn.Recv, fn.Type, fn.Body, atomScope{})
				return false
			}
			return true
		})
	}
	return facts, nil
}

func runAtomic(pass *analysis.Pass) (interface{}, error) {
	base := pkgBase(pass.PkgPath)
	links := pass.Facts
	// Classes carrying at least one atomic field, for the
	// dereference-copy rule.
	atomicClasses := map[string]bool{}
	for _, k := range analysis.SortedKeys(links) {
		if strings.HasPrefix(k, atomicFactPrefix) {
			full := strings.TrimPrefix(k, atomicFactPrefix)
			if i := strings.LastIndex(full, "."); i > 0 {
				atomicClasses[full[:i]] = true
			}
		}
	}
	for _, f := range pass.Files {
		file := f
		var scan func(recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt, outer atomScope)
		scan = func(recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt, outer atomScope) {
			scope := outer.clone()
			bindParams(base, scope, recv, ftype)
			bindLocals(base, scope, body)
			ast.Inspect(body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncLit:
					scan(nil, x.Type, x.Body, scope)
					return false
				case *ast.CallExpr:
					if _, isAtomic := atomicCall(file, x); isAtomic {
						return false // the atomic access itself
					}
					return true
				case *ast.StarExpr:
					chain := selChain(x.X)
					if chain == nil {
						return true
					}
					_, _, shared, valueClass, ok := resolveChain(scope, links, chain)
					if ok && shared && atomicClasses[valueClass] {
						pass.Reportf(x.Pos(),
							"dereference copies %s, which has fields accessed via sync/atomic; "+
								"plain copies race with atomic writers — take a snapshot with atomic loads instead",
							valueClass)
						return false
					}
					return true
				case *ast.SelectorExpr:
					chain := selChain(x)
					if chain == nil {
						return true // composite base (call/index); descend for inner chains
					}
					owner, field, shared, _, ok := resolveChain(scope, links, chain)
					if ok && shared && field != "" && links[atomicFactPrefix+owner+"."+field] != "" {
						pass.Reportf(x.Pos(),
							"plain access to %s.%s, which is accessed via sync/atomic elsewhere; "+
								"mixed plain/atomic access is a data race — use atomic loads/stores on every path",
							owner, field)
					}
					return false
				}
				return true
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				scan(fn.Recv, fn.Type, fn.Body, atomScope{})
				return false
			}
			return true
		})
	}
	return nil, nil
}
