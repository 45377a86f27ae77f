package query

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"drugtree/internal/chem"
	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// planCol is one column of an intermediate relation.
type planCol struct {
	Qualifier string
	Name      string
	Kind      store.Kind
}

// planSchema describes the rows flowing between plan operators.
type planSchema struct {
	cols []planCol
}

func (s *planSchema) Len() int { return len(s.cols) }

// resolve maps a column reference to its position, diagnosing unknown
// and ambiguous names.
func (s *planSchema) resolve(ref *ColumnRef) (int, error) {
	i, ok := s.lookup(ref)
	switch {
	case ok:
		return i, nil
	case i >= 0:
		return 0, fmt.Errorf("query: ambiguous column %s", ref)
	}
	return 0, fmt.Errorf("query: unknown column %s", ref)
}

// lookup is resolve without the error, for callers that probe a schema
// expecting misses: ok reports that exactly one column matches, and i is
// that column — or the first of several, or -1 when none matches.
func (s *planSchema) lookup(ref *ColumnRef) (i int, ok bool) {
	found := -1
	for i, c := range s.cols {
		if c.Name != ref.Name || (ref.Qualifier != "" && c.Qualifier != ref.Qualifier) {
			continue
		}
		if found >= 0 {
			return found, false
		}
		found = i
	}
	return found, found >= 0
}

func (s *planSchema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		if c.Qualifier != "" {
			parts[i] = c.Qualifier + "." + c.Name
		} else {
			parts[i] = c.Name
		}
	}
	return strings.Join(parts, ", ")
}

// concat joins two schemas (for joins).
func (s *planSchema) concat(o *planSchema) *planSchema {
	out := &planSchema{cols: make([]planCol, 0, len(s.cols)+len(o.cols))}
	out.cols = append(out.cols, s.cols...)
	out.cols = append(out.cols, o.cols...)
	return out
}

// boundExpr is a compiled expression: an evaluator over rows of a
// fixed schema plus the statically inferred result kind (KindNull when
// the kind depends on runtime input).
type boundExpr struct {
	eval func(store.Row) (store.Value, error)
	kind store.Kind
	src  Expr
}

// bindEnv supplies binding context: the input schema, the tree for
// WITHIN_SUBTREE resolution, and the catalog + optimizer options for
// executing uncorrelated subqueries. validateOnly marks planning-time
// binds that must not execute subqueries (they run again at physical
// binding).
type bindEnv struct {
	ctx          context.Context
	schema       *planSchema
	tree         *phylo.Tree
	cat          Catalog
	snap         *store.SnapshotHandle // statement snapshot subqueries reuse
	opts         Options
	validateOnly bool
}

// bind compiles e against env.
func bind(e Expr, env bindEnv) (*boundExpr, error) {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return &boundExpr{
			eval: func(store.Row) (store.Value, error) { return v, nil },
			kind: v.K,
			src:  e,
		}, nil
	case *ColumnRef:
		idx, err := env.schema.resolve(x)
		if err != nil {
			return nil, err
		}
		kind := env.schema.cols[idx].Kind
		return &boundExpr{
			eval: func(r store.Row) (store.Value, error) { return r[idx], nil },
			kind: kind,
			src:  e,
		}, nil
	case *NegExpr:
		inner, err := bind(x.E, env)
		if err != nil {
			return nil, err
		}
		return &boundExpr{
			eval: func(r store.Row) (store.Value, error) {
				v, err := inner.eval(r)
				if err != nil || v.IsNull() {
					return store.NullValue(), err
				}
				switch v.K {
				case store.KindInt:
					return store.IntValue(-v.I), nil
				case store.KindFloat:
					return store.FloatValue(-v.F), nil
				}
				return store.NullValue(), fmt.Errorf("query: cannot negate %v", v.K)
			},
			kind: inner.kind,
			src:  e,
		}, nil
	case *NotExpr:
		inner, err := bind(x.E, env)
		if err != nil {
			return nil, err
		}
		return &boundExpr{
			eval: func(r store.Row) (store.Value, error) {
				v, err := inner.eval(r)
				if err != nil {
					return store.NullValue(), err
				}
				if v.IsNull() {
					return store.BoolValue(false), nil
				}
				if v.K != store.KindBool {
					return store.NullValue(), fmt.Errorf("query: NOT expects BOOL, got %v", v.K)
				}
				return store.BoolValue(!v.Bool()), nil
			},
			kind: store.KindBool,
			src:  e,
		}, nil
	case *BinaryExpr:
		return bindBinary(x, env)
	case *SubtreeExpr:
		return bindSubtree(x, env)
	case *AncestorExpr:
		return bindAncestor(x, env)
	case *TanimotoExpr:
		return bindTanimoto(x, env)
	case *SubqueryExpr:
		return bindScalarSubquery(x, env)
	case *InSubqueryExpr:
		return bindInSubquery(x, env)
	case *AggExpr:
		return nil, fmt.Errorf("query: aggregate %s not allowed here", x)
	}
	return nil, fmt.Errorf("query: cannot bind %T", e)
}

// runSubquery plans (and, unless validating, executes) an
// uncorrelated subquery. It returns nil rows in validate-only mode.
func runSubquery(stmt *SelectStmt, env bindEnv) (*Result, *planSchema, error) {
	if env.cat == nil {
		return nil, nil, fmt.Errorf("query: subqueries require a catalog")
	}
	logical, err := BuildLogical(stmt, env.cat)
	if err != nil {
		return nil, nil, fmt.Errorf("query: subquery: %w", err)
	}
	if logical.Schema().Len() != 1 {
		return nil, nil, fmt.Errorf("query: subquery must produce exactly one column, got %d", logical.Schema().Len())
	}
	if env.validateOnly {
		return nil, logical.Schema(), nil
	}
	// The subquery runs against the outer statement's pinned snapshot
	// (RunAt leaves ownership with the outer statement), so a statement
	// and its subqueries always read one consistent image.
	res, err := NewEngine(env.cat, env.opts).RunAt(env.ctx, stmt, env.snap)
	if err != nil {
		return nil, nil, fmt.Errorf("query: subquery: %w", err)
	}
	return res, logical.Schema(), nil
}

// bindScalarSubquery executes the subquery once: one column, at most
// one row (zero rows → NULL).
func bindScalarSubquery(x *SubqueryExpr, env bindEnv) (*boundExpr, error) {
	res, schema, err := runSubquery(x.Stmt, env)
	if err != nil {
		return nil, err
	}
	kind := schema.cols[0].Kind
	if env.validateOnly {
		return &boundExpr{
			eval: func(store.Row) (store.Value, error) { return store.NullValue(), nil },
			kind: kind,
			src:  x,
		}, nil
	}
	if len(res.Rows) > 1 {
		return nil, fmt.Errorf("query: scalar subquery returned %d rows", len(res.Rows))
	}
	v := store.NullValue()
	if len(res.Rows) == 1 {
		v = res.Rows[0][0]
	}
	return &boundExpr{
		eval: func(store.Row) (store.Value, error) { return v, nil },
		kind: kind,
		src:  x,
	}, nil
}

// bindInSubquery materializes the subquery's single column into a set
// and compiles the membership test.
func bindInSubquery(x *InSubqueryExpr, env bindEnv) (*boundExpr, error) {
	needle, err := bind(x.Needle, env)
	if err != nil {
		return nil, err
	}
	res, _, err := runSubquery(x.Stmt, env)
	if err != nil {
		return nil, err
	}
	if env.validateOnly {
		return &boundExpr{
			eval: func(store.Row) (store.Value, error) { return store.BoolValue(false), nil },
			kind: store.KindBool,
			src:  x,
		}, nil
	}
	col := store.NewCol(store.KindNull, len(res.Rows))
	for _, r := range res.Rows {
		col.Append(r[0])
	}
	set := newHashTab(false, len(res.Rows))
	for i, key := 0, []*store.Col{col}; i < col.Len(); i++ {
		set.insert(key, i) // NULLs match nothing and are not kept
	}
	return &boundExpr{
		eval: func(r store.Row) (store.Value, error) {
			v, err := needle.eval(r)
			if err != nil {
				return store.NullValue(), err
			}
			return store.BoolValue(set.contains(v)), nil
		},
		kind: store.KindBool,
		src:  x,
	}, nil
}

// bindTanimoto parses and fingerprints the reference SMILES at bind
// time, then scores each row's SMILES against it. Row fingerprints
// are memoized by SMILES string (ligand relations repeat molecules
// across rows far more than they vary).
func bindTanimoto(x *TanimotoExpr, env bindEnv) (*boundExpr, error) {
	ref, err := chem.ParseSMILES(x.SMILES)
	if err != nil {
		return nil, fmt.Errorf("query: TANIMOTO reference: %w", err)
	}
	refFP := ref.ComputeFingerprint()
	idx, err := env.schema.resolve(x.Column)
	if err != nil {
		return nil, err
	}
	const memoCap = 1 << 16
	// The memo is shared by every worker evaluating this bound
	// expression under parallel execution, so guard it with a mutex
	// (fingerprinting dwarfs the lock cost).
	var memoMu sync.Mutex
	memo := make(map[string]*chem.Fingerprint)
	return &boundExpr{
		eval: func(r store.Row) (store.Value, error) {
			v := r[idx]
			if v.K != store.KindString {
				return store.NullValue(), nil
			}
			memoMu.Lock()
			fp, ok := memo[v.S]
			memoMu.Unlock()
			if !ok {
				m, err := chem.ParseSMILES(v.S)
				if err != nil {
					fp = nil // unparseable: score NULL, remember that
				} else {
					fp = m.ComputeFingerprint()
				}
				memoMu.Lock()
				if len(memo) < memoCap {
					memo[v.S] = fp
				}
				memoMu.Unlock()
			}
			if fp == nil {
				return store.NullValue(), nil
			}
			return store.FloatValue(refFP.Tanimoto(fp)), nil
		},
		kind: store.KindFloat,
		src:  x,
	}, nil
}

func bindBinary(x *BinaryExpr, env bindEnv) (*boundExpr, error) {
	l, err := bind(x.L, env)
	if err != nil {
		return nil, err
	}
	r, err := bind(x.R, env)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch {
	case op == OpAnd || op == OpOr:
		isAnd := op == OpAnd
		return &boundExpr{
			eval: func(row store.Row) (store.Value, error) {
				lv, err := l.eval(row)
				if err != nil {
					return store.NullValue(), err
				}
				lb := lv.K == store.KindBool && lv.Bool()
				// Short circuit.
				if isAnd && !lb && lv.K == store.KindBool {
					return store.BoolValue(false), nil
				}
				if !isAnd && lb {
					return store.BoolValue(true), nil
				}
				rv, err := r.eval(row)
				if err != nil {
					return store.NullValue(), err
				}
				rb := rv.K == store.KindBool && rv.Bool()
				if isAnd {
					return store.BoolValue(lb && rb), nil
				}
				return store.BoolValue(lb || rb), nil
			},
			kind: store.KindBool,
			src:  x,
		}, nil
	case op == OpLike:
		return &boundExpr{
			eval: func(row store.Row) (store.Value, error) {
				lv, err := l.eval(row)
				if err != nil {
					return store.NullValue(), err
				}
				rv, err := r.eval(row)
				if err != nil {
					return store.NullValue(), err
				}
				if lv.K != store.KindString || rv.K != store.KindString {
					return store.BoolValue(false), nil
				}
				return store.BoolValue(likeMatch(lv.S, rv.S)), nil
			},
			kind: store.KindBool,
			src:  x,
		}, nil
	case op.Comparison():
		return &boundExpr{
			eval: func(row store.Row) (store.Value, error) {
				lv, err := l.eval(row)
				if err != nil {
					return store.NullValue(), err
				}
				rv, err := r.eval(row)
				if err != nil {
					return store.NullValue(), err
				}
				// SQL-ish: comparisons with NULL are false (two-valued
				// logic documented in the package comment).
				if lv.IsNull() || rv.IsNull() {
					return store.BoolValue(false), nil
				}
				cmp := store.Compare(lv, rv)
				var b bool
				switch op {
				case OpEq:
					b = cmp == 0
				case OpNe:
					b = cmp != 0
				case OpLt:
					b = cmp < 0
				case OpLe:
					b = cmp <= 0
				case OpGt:
					b = cmp > 0
				case OpGe:
					b = cmp >= 0
				}
				return store.BoolValue(b), nil
			},
			kind: store.KindBool,
			src:  x,
		}, nil
	default: // arithmetic
		outKind := store.KindFloat
		if l.kind == store.KindInt && r.kind == store.KindInt {
			outKind = store.KindInt
		}
		return &boundExpr{
			eval: func(row store.Row) (store.Value, error) {
				lv, err := l.eval(row)
				if err != nil {
					return store.NullValue(), err
				}
				rv, err := r.eval(row)
				if err != nil {
					return store.NullValue(), err
				}
				if lv.IsNull() || rv.IsNull() {
					return store.NullValue(), nil
				}
				if !lv.Numeric() || !rv.Numeric() {
					return store.NullValue(), fmt.Errorf("query: %v on non-numeric operands", op)
				}
				if lv.K == store.KindInt && rv.K == store.KindInt {
					switch op {
					case OpAdd:
						return store.IntValue(lv.I + rv.I), nil
					case OpSub:
						return store.IntValue(lv.I - rv.I), nil
					case OpMul:
						return store.IntValue(lv.I * rv.I), nil
					case OpDiv:
						if rv.I == 0 {
							return store.NullValue(), nil
						}
						return store.IntValue(lv.I / rv.I), nil
					}
				}
				lf, rf := lv.AsFloat(), rv.AsFloat()
				switch op {
				case OpAdd:
					return store.FloatValue(lf + rf), nil
				case OpSub:
					return store.FloatValue(lf - rf), nil
				case OpMul:
					return store.FloatValue(lf * rf), nil
				case OpDiv:
					if rf == 0 {
						return store.NullValue(), nil
					}
					return store.FloatValue(lf / rf), nil
				}
				return store.NullValue(), fmt.Errorf("query: unsupported operator %v", op)
			},
			kind: outKind,
			src:  x,
		}, nil
	}
}

// bindSubtree resolves the subtree root at bind time and compiles the
// membership test: a preorder-interval check for INT columns (preorder
// numbers), a node-name set membership for STRING columns (accessions
// naming tree nodes directly).
func bindSubtree(x *SubtreeExpr, env bindEnv) (*boundExpr, error) {
	if env.tree == nil {
		return nil, fmt.Errorf("query: WITHIN_SUBTREE requires a tree-backed catalog")
	}
	node, err := findTreeNode(env.tree, x.Node)
	if err != nil {
		return nil, err
	}
	lo, hi := env.tree.SubtreeInterval(node)
	idx, err := env.schema.resolve(x.Column)
	if err != nil {
		return nil, err
	}
	if env.schema.cols[idx].Kind == store.KindString {
		member := subtreeNameSet(env.tree, lo, hi)
		return &boundExpr{
			eval: func(r store.Row) (store.Value, error) {
				v := r[idx]
				return store.BoolValue(v.K == store.KindString && member[v.S]), nil
			},
			kind: store.KindBool,
			src:  x,
		}, nil
	}
	return &boundExpr{
		eval: func(r store.Row) (store.Value, error) {
			v := r[idx]
			if v.K != store.KindInt {
				return store.BoolValue(false), nil
			}
			return store.BoolValue(v.I >= int64(lo) && v.I <= int64(hi)), nil
		},
		kind: store.KindBool,
		src:  x,
	}, nil
}

// subtreeNameSet collects the names of every tree node whose preorder
// number falls in [lo, hi] — the string-column form of a subtree
// membership test.
func subtreeNameSet(tree *phylo.Tree, lo, hi int) map[string]bool {
	member := make(map[string]bool, hi-lo+1)
	for p := lo; p <= hi; p++ {
		if name := tree.Node(tree.NodeAtPre(p)).Name; name != "" {
			member[name] = true
		}
	}
	return member
}

// bindAncestor resolves the target node's root path at bind time and
// compiles the predicate to a preorder-set membership test.
func bindAncestor(x *AncestorExpr, env bindEnv) (*boundExpr, error) {
	if env.tree == nil {
		return nil, fmt.Errorf("query: ANCESTOR_OF requires a tree-backed catalog")
	}
	node, err := findTreeNode(env.tree, x.Node)
	if err != nil {
		return nil, err
	}
	path := make(map[int64]bool)
	for _, anc := range env.tree.Ancestors(node) {
		path[int64(env.tree.Pre(anc))] = true
	}
	idx, err := env.schema.resolve(x.Column)
	if err != nil {
		return nil, err
	}
	return &boundExpr{
		eval: func(r store.Row) (store.Value, error) {
			v := r[idx]
			return store.BoolValue(v.K == store.KindInt && path[v.I]), nil
		},
		kind: store.KindBool,
		src:  x,
	}, nil
}

// findTreeNode locates a node by name (leaf or internal) through the
// tree's own name index.
func findTreeNode(t *phylo.Tree, name string) (phylo.NodeID, error) {
	if id, ok := t.NodeByName(name); ok {
		return id, nil
	}
	return phylo.None, fmt.Errorf("query: tree has no node named %q", name)
}

// likeMatch implements SQL LIKE with % (any run) and _ (single char),
// case-sensitive, via iterative wildcard matching.
func likeMatch(s, pattern string) bool {
	// Two-pointer algorithm with backtracking on the last %.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			sBack++
			si = sBack
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// evalBool runs a compiled predicate, treating errors as fatal and
// non-bool results as false.
func (b *boundExpr) evalBool(r store.Row) (bool, error) {
	v, err := b.eval(r)
	if err != nil {
		return false, err
	}
	return v.K == store.KindBool && v.Bool(), nil
}
