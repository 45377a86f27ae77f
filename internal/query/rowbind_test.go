package query

import (
	"fmt"
	"sync"

	"drugtree/internal/chem"
	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// The row compiler: the reference executor's (refexec_test.go)
// expression compiler, and the oracle FuzzVecEval checks bindVec
// against. bind compiles an expression to a closure over one row that
// returns its value — the semantics bindVec's batch loops must agree
// with cell for cell, and error for error in row order. It shares no
// evaluation code with bindVec: only name resolution (planSchema),
// subquery planning and execution (runSubquery), tree-node lookup and
// likeMatch.

// boundExpr is a compiled expression: an evaluator over rows of a
// fixed schema plus the statically inferred result kind (KindNull when
// the kind depends on runtime input).
type boundExpr struct {
	eval func(store.Row) (store.Value, error)
	kind store.Kind
	src  Expr
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
	if res.Batch.Rows > 1 {
		return nil, fmt.Errorf("query: scalar subquery returned %d rows", res.Batch.Rows)
	}
	v := store.NullValue()
	if res.Batch.Rows == 1 {
		v = res.Dict.Value(&res.Batch.Cols[0], 0)
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
	col := &res.Batch.Cols[0]
	if col.Kind == store.KindCode { // the set holds names, as rows do
		col = &store.Col{}
		res.Dict.Decode(col, &res.Batch.Cols[0], identity(res.Batch.Rows))
	}
	set := newHashTab(false, col.Len())
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
	idx, err := env.schema.resolve(x.Column)
	if err != nil {
		return nil, err
	}
	refFP, err := ref.ComputeFingerprint()
	if err != nil {
		return nil, fmt.Errorf("query: TANIMOTO reference: %w", err)
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
					fp, _ = m.ComputeFingerprint() // nil past the path budget
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
// naming tree nodes directly). A name means the lowest-ID node carrying
// it — Tree.NodeByName's rule, restated here over every node — so the
// set holds the names whose lowest-ID node lies in the clade.
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
		owner := map[string]int{}
		for id := env.tree.Len() - 1; id >= 0; id-- {
			if name := env.tree.Node(phylo.NodeID(id)).Name; name != "" {
				owner[name] = id
			}
		}
		member := map[string]bool{}
		for name, p := range owner {
			member[name] = p >= lo && p <= hi
		}
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
	for v := node; v != phylo.None; v = env.tree.Parent(v) {
		path[int64(v)] = true
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

// evalBool runs a compiled predicate, treating errors as fatal and
// non-bool results as false.
func (b *boundExpr) evalBool(r store.Row) (bool, error) {
	v, err := b.eval(r)
	if err != nil {
		return false, err
	}
	return v.K == store.KindBool && v.Bool(), nil
}

// contains reports whether a one-column table holds v.
func (t *hashTab) contains(v store.Value) bool {
	cell := store.Col{Null: []bool{v.IsNull()}, Vals: []store.Value{v}}
	return t.find([]*store.Col{&cell}, 0) >= 0
}
