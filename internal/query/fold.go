package query

import (
	"drugtree/internal/store"
)

// foldConstants simplifies expressions bottom-up: operators over
// literals evaluate at plan time, and boolean identities collapse
// (TRUE AND x → x, FALSE AND x → FALSE, ...). Subtree and ancestor
// rewrites produce literal-heavy predicates, so folding runs after
// them.
func foldConstants(e Expr) Expr {
	switch x := e.(type) {
	case *BinaryExpr:
		l := foldConstants(x.L)
		r := foldConstants(x.R)
		ll, lOK := l.(*Literal)
		rl, rOK := r.(*Literal)
		// Boolean identities first (need only one literal side).
		switch x.Op {
		case OpAnd:
			if lOK && ll.Val.K == store.KindBool {
				if ll.Val.Bool() {
					return r
				}
				return &Literal{Val: store.BoolValue(false)}
			}
			if rOK && rl.Val.K == store.KindBool {
				if rl.Val.Bool() {
					return l
				}
				return &Literal{Val: store.BoolValue(false)}
			}
		case OpOr:
			if lOK && ll.Val.K == store.KindBool {
				if !ll.Val.Bool() {
					return r
				}
				return &Literal{Val: store.BoolValue(true)}
			}
			if rOK && rl.Val.K == store.KindBool {
				if !rl.Val.Bool() {
					return l
				}
				return &Literal{Val: store.BoolValue(true)}
			}
		}
		if lOK && rOK {
			if folded, ok := evalConstBinary(x.Op, ll.Val, rl.Val); ok {
				return &Literal{Val: folded}
			}
		}
		return &BinaryExpr{Op: x.Op, L: l, R: r}
	case *NotExpr:
		in := foldConstants(x.E)
		if lit, ok := in.(*Literal); ok && lit.Val.K == store.KindBool {
			return &Literal{Val: store.BoolValue(!lit.Val.Bool())}
		}
		return &NotExpr{E: in}
	case *NegExpr:
		in := foldConstants(x.E)
		if lit, ok := in.(*Literal); ok {
			switch lit.Val.K {
			case store.KindInt:
				return &Literal{Val: store.IntValue(-lit.Val.I)}
			case store.KindFloat:
				return &Literal{Val: store.FloatValue(-lit.Val.F)}
			}
		}
		return &NegExpr{E: in}
	}
	return e
}

// evalConstBinary evaluates op over two literals with the runtime
// evaluator, over a one-row batch (no columns involved).
func evalConstBinary(op BinOp, l, r store.Value) (store.Value, bool) {
	ve, err := bindVecBinary(&BinaryExpr{
		Op: op,
		L:  &Literal{Val: l},
		R:  &Literal{Val: r},
	}, bindEnv{schema: &planSchema{}})
	if err != nil {
		return store.Value{}, false
	}
	c, err := ve.eval(&batch{n: 1}, identity(1))
	if err != nil {
		return store.Value{}, false
	}
	return c.Value(0), true
}

// foldPlan applies constant folding to every expression in a plan.
func foldPlan(plan LogicalPlan) LogicalPlan {
	switch n := mapInputs(plan, foldPlan).(type) {
	case *FilterNode:
		n.Pred = foldConstants(n.Pred)
		// A filter that folded to TRUE disappears; FALSE keeps the
		// filter (it correctly yields zero rows at execution).
		if isTrue(n.Pred) {
			return n.Input
		}
		return n
	case *JoinNode:
		n.Cond = foldConstants(n.Cond)
		return n
	case *ScanNode:
		out := *n
		out.Conjuncts = nil
		for _, c := range n.Conjuncts {
			if fc := foldConstants(c); !isTrue(fc) {
				out.Conjuncts = append(out.Conjuncts, fc)
			}
		}
		return &out
	case *ProjectNode:
		exprs := make([]Expr, len(n.Exprs))
		for i, e := range n.Exprs {
			exprs[i] = foldConstants(e)
		}
		n.Exprs = exprs
		return n
	default:
		return n
	}
}

// isTrue reports whether e is the literal TRUE.
func isTrue(e Expr) bool {
	lit, ok := e.(*Literal)
	return ok && lit.Val.K == store.KindBool && lit.Val.Bool()
}
