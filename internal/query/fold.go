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
	switch n := plan.(type) {
	case *FilterNode:
		in := foldPlan(n.Input)
		pred := foldConstants(n.Pred)
		// A filter that folded to TRUE disappears; FALSE keeps the
		// filter (it correctly yields zero rows at execution).
		if lit, ok := pred.(*Literal); ok && lit.Val.K == store.KindBool && lit.Val.Bool() {
			return in
		}
		return &FilterNode{Input: in, Pred: pred}
	case *JoinNode:
		out := *n
		out.Left = foldPlan(n.Left)
		out.Right = foldPlan(n.Right)
		out.Cond = foldConstants(n.Cond)
		return &out
	case *ScanNode:
		out := *n
		out.Conjuncts = nil
		for _, c := range n.Conjuncts {
			fc := foldConstants(c)
			if lit, ok := fc.(*Literal); ok && lit.Val.K == store.KindBool && lit.Val.Bool() {
				continue
			}
			out.Conjuncts = append(out.Conjuncts, fc)
		}
		return &out
	case *ProjectNode:
		out := *n
		out.Input = foldPlan(n.Input)
		out.Exprs = make([]Expr, len(n.Exprs))
		for i, e := range n.Exprs {
			out.Exprs[i] = foldConstants(e)
		}
		return &out
	case *AggNode:
		out := *n
		out.Input = foldPlan(n.Input)
		return &out
	case *SortNode:
		return &SortNode{Input: foldPlan(n.Input), Keys: n.Keys}
	case *LimitNode:
		return &LimitNode{Input: foldPlan(n.Input), N: n.N}
	}
	return plan
}
