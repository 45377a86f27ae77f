package query

import (
	"fmt"

	"drugtree/internal/store"
)

// errSubtreeNoTree and errAncestorNoTree mirror bindSubtree's and
// bindAncestor's missing-tree diagnostics byte for byte.
func errSubtreeNoTree() error {
	return fmt.Errorf("query: WITHIN_SUBTREE requires a tree-backed catalog")
}

func errAncestorNoTree() error {
	return fmt.Errorf("query: ANCESTOR_OF requires a tree-backed catalog")
}

// Expression compilation for batches. bindVec compiles an expression to
// a per-batch evaluator that loops over typed column slices; bindVecPred
// compiles predicates to selection-vector filters. Expressions that can
// fail at evaluation time (negation / NOT / arithmetic over columns
// whose kind is not statically numeric or boolean) do not get typed
// loops: vecSafe rejects those shapes from static kinds alone, and
// bindVecPred / bindVecExpr then evaluate the row-compiled form (bind)
// row by row over a scratch row, in row-major order, so the error a
// statement reports is the one its first failing row raises. That
// choice is made here, per expression; no operator knows of it.

// vecExpr is a compiled vectorized expression: eval returns a column
// with b.n cells whose values are defined at the positions listed in
// sel (other cells are unspecified). Implementations must be stateless
// so one compiled expression can be shared by parallel workers.
type vecExpr struct {
	kind store.Kind
	eval func(b *batch, sel []int) (*store.Col, error)
}

// vecPred is a compiled vectorized predicate: filter narrows sel to
// the rows where the predicate is a non-NULL true (boundExpr.evalBool's
// semantics).
type vecPred struct {
	filter func(b *batch, sel []int) ([]int, error)
}

// vecSafe reports whether e can be evaluated batch-at-a-time without
// changing observable behavior, and the static result kind (mirroring
// bind's kind inference). Expressions whose evaluation can error are
// unsafe: column-at-a-time evaluation would surface errors in a
// different order than row-major evaluation does.
func vecSafe(e Expr, schema *planSchema) (store.Kind, bool) {
	switch x := e.(type) {
	case *Literal:
		return x.Val.K, true
	case *ColumnRef:
		idx, ok := schema.lookup(x)
		if !ok {
			return store.KindNull, false
		}
		return schema.cols[idx].Kind, true
	case *NegExpr:
		k, ok := vecSafe(x.E, schema)
		if !ok || (k != store.KindInt && k != store.KindFloat) {
			return store.KindNull, false
		}
		return k, true
	case *NotExpr:
		k, ok := vecSafe(x.E, schema)
		if !ok || k != store.KindBool {
			return store.KindNull, false
		}
		return store.KindBool, true
	case *BinaryExpr:
		lk, lok := vecSafe(x.L, schema)
		rk, rok := vecSafe(x.R, schema)
		if !lok || !rok {
			return store.KindNull, false
		}
		switch {
		case x.Op == OpAnd || x.Op == OpOr || x.Op == OpLike || x.Op.Comparison():
			return store.KindBool, true
		default: // arithmetic: both operands must be statically numeric
			lnum := lk == store.KindInt || lk == store.KindFloat
			rnum := rk == store.KindInt || rk == store.KindFloat
			if !lnum || !rnum {
				return store.KindNull, false
			}
			if lk == store.KindInt && rk == store.KindInt {
				return store.KindInt, true
			}
			return store.KindFloat, true
		}
	case *SubtreeExpr, *AncestorExpr, *InSubqueryExpr:
		if in, ok := x.(*InSubqueryExpr); ok {
			if _, nok := vecSafe(in.Needle, schema); !nok {
				return store.KindNull, false
			}
		}
		return store.KindBool, true
	case *TanimotoExpr:
		return store.KindFloat, true
	case *SubqueryExpr:
		// Scalar subqueries evaluate to a constant; the kind is only
		// known after planning the subquery, which is fine: parents
		// that need a numeric kind fall back.
		return store.KindNull, true
	}
	return store.KindNull, false
}

// bindVec compiles e (which must be vecSafe) to a vectorized
// evaluator. Leaves the batch loops cannot express natively —
// TANIMOTO, subqueries — are wrapped as per-row evaluations of the
// row-compiled form; they never error, so row order is immaterial.
func bindVec(e Expr, env bindEnv) (*vecExpr, error) {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return &vecExpr{kind: v.K, eval: func(b *batch, sel []int) (*store.Col, error) {
			out := store.NewDenseCol(v.K, b.n)
			if !v.IsNull() {
				for _, i := range sel {
					out.SetValue(i, v)
				}
			}
			return out, nil
		}}, nil
	case *ColumnRef:
		idx, err := env.schema.resolve(x)
		if err != nil {
			return nil, err
		}
		kind := env.schema.cols[idx].Kind
		return &vecExpr{kind: kind, eval: func(b *batch, sel []int) (*store.Col, error) {
			return b.cols[idx], nil
		}}, nil
	case *NegExpr:
		inner, err := bindVec(x.E, env)
		if err != nil {
			return nil, err
		}
		return &vecExpr{kind: inner.kind, eval: func(b *batch, sel []int) (*store.Col, error) {
			c, err := inner.eval(b, sel)
			if err != nil {
				return nil, err
			}
			switch c.Kind {
			case store.KindInt:
				out := store.NewDenseCol(store.KindInt, b.n)
				for _, i := range sel {
					if !c.Null[i] {
						out.SetInt(i, -c.Int[i])
					}
				}
				return out, nil
			case store.KindFloat:
				out := store.NewDenseCol(store.KindFloat, b.n)
				for _, i := range sel {
					if !c.Null[i] {
						out.SetFloat(i, -c.Float[i])
					}
				}
				return out, nil
			}
			// Generic input (vecSafe guarantees the static kind is
			// numeric, so cells are numeric or NULL).
			out := store.NewDenseCol(store.KindNull, b.n)
			for _, i := range sel {
				v := c.Value(i)
				switch v.K {
				case store.KindInt:
					out.SetValue(i, store.IntValue(-v.I))
				case store.KindFloat:
					out.SetValue(i, store.FloatValue(-v.F))
				}
			}
			return out, nil
		}}, nil
	case *NotExpr:
		inner, err := bindVec(x.E, env)
		if err != nil {
			return nil, err
		}
		return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
			c, err := inner.eval(b, sel)
			if err != nil {
				return nil, err
			}
			out := store.NewDenseCol(store.KindBool, b.n)
			for _, i := range sel {
				// NULL → false, bool → negation (vecSafe guarantees
				// the static kind is BOOL).
				out.SetBool(i, !c.Null[i] && !colTrue(c, i))
			}
			return out, nil
		}}, nil
	case *BinaryExpr:
		return bindVecBinary(x, env)
	case *SubtreeExpr:
		return bindVecSubtree(x, env)
	case *AncestorExpr:
		return bindVecAncestor(x, env)
	case *TanimotoExpr, *SubqueryExpr, *InSubqueryExpr:
		be, err := bind(e, env)
		if err != nil {
			return nil, err
		}
		return rowEvalVec(be), nil
	}
	// Unreachable when callers respect vecSafe; bind row-form so the
	// error is bind's.
	be, err := bind(e, env)
	if err != nil {
		return nil, err
	}
	return rowEvalVec(be), nil
}

// rowEvalVec wraps a row-compiled expression as a vectorized leaf,
// evaluating it row by row into a generic column. Used for leaves that
// cannot error (their row order is unobservable) but have no batch
// loop form.
func rowEvalVec(be *boundExpr) *vecExpr {
	return &vecExpr{kind: be.kind, eval: func(b *batch, sel []int) (*store.Col, error) {
		out := store.NewDenseCol(store.KindNull, b.n)
		var scratch store.Row
		for _, i := range sel {
			scratch = b.rowAt(i, scratch)
			v, err := be.eval(scratch)
			if err != nil {
				return nil, err
			}
			out.SetValue(i, v)
		}
		return out, nil
	}}
}

// colTrue reports whether cell i is a non-NULL boolean true — the
// cell-level form of boundExpr.evalBool.
func colTrue(c *store.Col, i int) bool {
	if c.Null[i] {
		return false
	}
	switch c.Kind {
	case store.KindBool:
		return c.Int[i] != 0
	case store.KindNull:
		v := c.Vals[i]
		return v.K == store.KindBool && v.Bool()
	}
	return false
}

// colBool reports (value, isBool) for cell i: isBool is true only for
// a non-NULL boolean cell. Mirrors bind's AND/OR operand
// handling (lb := lv.K == KindBool && lv.Bool()).
func colBool(c *store.Col, i int) (bool, bool) {
	if c.Null[i] {
		return false, false
	}
	switch c.Kind {
	case store.KindBool:
		return c.Int[i] != 0, true
	case store.KindNull:
		v := c.Vals[i]
		return v.K == store.KindBool && v.Bool(), v.K == store.KindBool
	}
	return false, false
}

func bindVecBinary(x *BinaryExpr, env bindEnv) (*vecExpr, error) {
	l, err := bindVec(x.L, env)
	if err != nil {
		return nil, err
	}
	r, err := bindVec(x.R, env)
	if err != nil {
		return nil, err
	}
	op := x.Op
	// Constant-broadcast fast paths: a literal operand (constant
	// folding has already collapsed every constant subexpression to a
	// single Literal) is kept as a scalar instead of being
	// materialized into a batch-wide column on every eval — the
	// dominant cost of predicates like `affinity * 2.0 > 12.0`.
	llit, lIsLit := x.L.(*Literal)
	rlit, rIsLit := x.R.(*Literal)
	switch {
	case op == OpLike && rIsLit:
		pat := rlit.Val
		return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
			lc, err := l.eval(b, sel)
			if err != nil {
				return nil, err
			}
			out := store.NewDenseCol(store.KindBool, b.n)
			if pat.K != store.KindString {
				for _, i := range sel {
					out.SetBool(i, false)
				}
				return out, nil
			}
			if lc.Kind == store.KindString {
				for _, i := range sel {
					out.SetBool(i, !lc.Null[i] && likeMatch(lc.Str[i], pat.S))
				}
				return out, nil
			}
			for _, i := range sel {
				lv := lc.Value(i)
				out.SetBool(i, lv.K == store.KindString && likeMatch(lv.S, pat.S))
			}
			return out, nil
		}}, nil
	case op == OpLike:
		// Comparison() includes LIKE, so this guard keeps a
		// non-literal pattern out of the comparison fast paths; the
		// generic LIKE loop below handles it.
	case op.Comparison() && rIsLit:
		v := rlit.Val
		return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
			lc, err := l.eval(b, sel)
			if err != nil {
				return nil, err
			}
			return compareColScalar(op, lc, v, b.n, sel, true), nil
		}}, nil
	case op.Comparison() && lIsLit:
		v := llit.Val
		return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
			rc, err := r.eval(b, sel)
			if err != nil {
				return nil, err
			}
			return compareColScalar(op, rc, v, b.n, sel, false), nil
		}}, nil
	case op != OpAnd && op != OpOr && op != OpLike && !op.Comparison() && rIsLit:
		v := rlit.Val
		return &vecExpr{kind: arithKind(l.kind, r.kind), eval: func(b *batch, sel []int) (*store.Col, error) {
			lc, err := l.eval(b, sel)
			if err != nil {
				return nil, err
			}
			return arithColScalar(op, lc, v, b.n, sel, true), nil
		}}, nil
	case op != OpAnd && op != OpOr && op != OpLike && !op.Comparison() && lIsLit:
		v := llit.Val
		return &vecExpr{kind: arithKind(l.kind, r.kind), eval: func(b *batch, sel []int) (*store.Col, error) {
			rc, err := r.eval(b, sel)
			if err != nil {
				return nil, err
			}
			return arithColScalar(op, rc, v, b.n, sel, false), nil
		}}, nil
	}
	switch {
	case op == OpAnd || op == OpOr:
		isAnd := op == OpAnd
		return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
			lc, err := l.eval(b, sel)
			if err != nil {
				return nil, err
			}
			out := store.NewDenseCol(store.KindBool, b.n)
			// Short circuit at batch granularity: rows whose outcome
			// the left side decides are settled here; the right side
			// is evaluated only for the remainder.
			need := make([]int, 0, len(sel))
			for _, i := range sel {
				lb, lIsBool := colBool(lc, i)
				switch {
				case isAnd && lIsBool && !lb:
					out.SetBool(i, false)
				case !isAnd && lb:
					out.SetBool(i, true)
				default:
					need = append(need, i)
				}
			}
			if len(need) == 0 {
				return out, nil
			}
			rc, err := r.eval(b, need)
			if err != nil {
				return nil, err
			}
			for _, i := range need {
				lb := colTrue(lc, i)
				rb := colTrue(rc, i)
				if isAnd {
					out.SetBool(i, lb && rb)
				} else {
					out.SetBool(i, lb || rb)
				}
			}
			return out, nil
		}}, nil
	case op == OpLike:
		return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
			lc, err := l.eval(b, sel)
			if err != nil {
				return nil, err
			}
			rc, err := r.eval(b, sel)
			if err != nil {
				return nil, err
			}
			out := store.NewDenseCol(store.KindBool, b.n)
			if lc.Kind == store.KindString && rc.Kind == store.KindString {
				for _, i := range sel {
					out.SetBool(i, !lc.Null[i] && !rc.Null[i] && likeMatch(lc.Str[i], rc.Str[i]))
				}
				return out, nil
			}
			for _, i := range sel {
				lv, rv := lc.Value(i), rc.Value(i)
				out.SetBool(i, lv.K == store.KindString && rv.K == store.KindString && likeMatch(lv.S, rv.S))
			}
			return out, nil
		}}, nil
	case op.Comparison():
		return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
			lc, err := l.eval(b, sel)
			if err != nil {
				return nil, err
			}
			rc, err := r.eval(b, sel)
			if err != nil {
				return nil, err
			}
			return compareCols(op, lc, rc, b.n, sel), nil
		}}, nil
	default: // arithmetic; vecSafe guarantees both sides statically numeric
		outKind := store.KindFloat
		if l.kind == store.KindInt && r.kind == store.KindInt {
			outKind = store.KindInt
		}
		return &vecExpr{kind: outKind, eval: func(b *batch, sel []int) (*store.Col, error) {
			lc, err := l.eval(b, sel)
			if err != nil {
				return nil, err
			}
			rc, err := r.eval(b, sel)
			if err != nil {
				return nil, err
			}
			return arithCols(op, lc, rc, b.n, sel), nil
		}}, nil
	}
}

// cmpHolds applies a comparison operator to a store.Compare result.
func cmpHolds(op BinOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// compareCols evaluates a comparison over two aligned columns.
// Comparisons with NULL are false (two-valued logic, as in bind);
// non-NULL cells compare exactly as store.Compare does: int/int
// exactly, mixed numerics as float64, strings bytewise.
func compareCols(op BinOp, lc, rc *store.Col, n int, sel []int) *store.Col {
	out := store.NewDenseCol(store.KindBool, n)
	switch {
	case lc.Kind == store.KindInt && rc.Kind == store.KindInt:
		for _, i := range sel {
			if lc.Null[i] || rc.Null[i] {
				out.SetBool(i, false)
				continue
			}
			a, b := lc.Int[i], rc.Int[i]
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			out.SetBool(i, cmpHolds(op, cmp))
		}
	case numericColKind(lc.Kind) && numericColKind(rc.Kind):
		for _, i := range sel {
			if lc.Null[i] || rc.Null[i] {
				out.SetBool(i, false)
				continue
			}
			a, b := colFloat(lc, i), colFloat(rc, i)
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			out.SetBool(i, cmpHolds(op, cmp))
		}
	case lc.Kind == store.KindString && rc.Kind == store.KindString:
		for _, i := range sel {
			if lc.Null[i] || rc.Null[i] {
				out.SetBool(i, false)
				continue
			}
			a, b := lc.Str[i], rc.Str[i]
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			out.SetBool(i, cmpHolds(op, cmp))
		}
	default:
		// Generic or cross-kind cells: defer to store.Compare for
		// bind's exact semantics (kind-tag ordering included).
		for _, i := range sel {
			lv, rv := lc.Value(i), rc.Value(i)
			if lv.IsNull() || rv.IsNull() {
				out.SetBool(i, false)
				continue
			}
			out.SetBool(i, cmpHolds(op, store.Compare(lv, rv)))
		}
	}
	return out
}

func numericColKind(k store.Kind) bool {
	return k == store.KindInt || k == store.KindFloat
}

// colFloat reads a non-null numeric cell as float64.
func colFloat(c *store.Col, i int) float64 {
	if c.Kind == store.KindInt {
		return float64(c.Int[i])
	}
	return c.Float[i]
}

// arithCols evaluates +,-,*,/ over two aligned numeric columns:
// int/int stays exact integer arithmetic, any float operand promotes
// to float64, NULL operands and division by zero yield NULL.
func arithCols(op BinOp, lc, rc *store.Col, n int, sel []int) *store.Col {
	switch {
	case lc.Kind == store.KindInt && rc.Kind == store.KindInt:
		out := store.NewDenseCol(store.KindInt, n)
		for _, i := range sel {
			if lc.Null[i] || rc.Null[i] {
				continue
			}
			a, b := lc.Int[i], rc.Int[i]
			switch op {
			case OpAdd:
				out.SetInt(i, a+b)
			case OpSub:
				out.SetInt(i, a-b)
			case OpMul:
				out.SetInt(i, a*b)
			case OpDiv:
				if b != 0 {
					out.SetInt(i, a/b)
				}
			}
		}
		return out
	case numericColKind(lc.Kind) && numericColKind(rc.Kind):
		out := store.NewDenseCol(store.KindFloat, n)
		for _, i := range sel {
			if lc.Null[i] || rc.Null[i] {
				continue
			}
			a, b := colFloat(lc, i), colFloat(rc, i)
			switch op {
			case OpAdd:
				out.SetFloat(i, a+b)
			case OpSub:
				out.SetFloat(i, a-b)
			case OpMul:
				out.SetFloat(i, a*b)
			case OpDiv:
				if b != 0 {
					out.SetFloat(i, a/b)
				}
			}
		}
		return out
	}
	// Generic cells: mirror bind's scalar arithmetic
	// (vecSafe guarantees the static kinds are numeric, so non-NULL
	// cells are numeric).
	out := store.NewDenseCol(store.KindNull, n)
	for _, i := range sel {
		lv, rv := lc.Value(i), rc.Value(i)
		if lv.IsNull() || rv.IsNull() {
			continue
		}
		if lv.K == store.KindInt && rv.K == store.KindInt {
			switch op {
			case OpAdd:
				out.SetValue(i, store.IntValue(lv.I+rv.I))
			case OpSub:
				out.SetValue(i, store.IntValue(lv.I-rv.I))
			case OpMul:
				out.SetValue(i, store.IntValue(lv.I*rv.I))
			case OpDiv:
				if rv.I != 0 {
					out.SetValue(i, store.IntValue(lv.I/rv.I))
				}
			}
			continue
		}
		lf, rf := lv.AsFloat(), rv.AsFloat()
		switch op {
		case OpAdd:
			out.SetValue(i, store.FloatValue(lf+rf))
		case OpSub:
			out.SetValue(i, store.FloatValue(lf-rf))
		case OpMul:
			out.SetValue(i, store.FloatValue(lf*rf))
		case OpDiv:
			if rf != 0 {
				out.SetValue(i, store.FloatValue(lf/rf))
			}
		}
	}
	return out
}

// arithKind is bind's static result-kind rule for arithmetic: int/int
// stays int, any float operand promotes.
func arithKind(lk, rk store.Kind) store.Kind {
	if lk == store.KindInt && rk == store.KindInt {
		return store.KindInt
	}
	return store.KindFloat
}

// compareColScalar evaluates a comparison between a column and a
// constant without materializing the constant into a column.
// colIsLeft orients the comparison (col op v vs v op col). Semantics
// match compareCols cell for cell: NULL on either side is false.
func compareColScalar(op BinOp, c *store.Col, v store.Value, n int, sel []int, colIsLeft bool) *store.Col {
	out := store.NewDenseCol(store.KindBool, n)
	if v.IsNull() {
		for _, i := range sel {
			out.SetBool(i, false)
		}
		return out
	}
	hold := func(cmp int) bool {
		if !colIsLeft {
			cmp = -cmp
		}
		return cmpHolds(op, cmp)
	}
	switch {
	case c.Kind == store.KindInt && v.K == store.KindInt:
		b := v.I
		for _, i := range sel {
			if c.Null[i] {
				out.SetBool(i, false)
				continue
			}
			a := c.Int[i]
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			out.SetBool(i, hold(cmp))
		}
	case numericColKind(c.Kind) && (v.K == store.KindInt || v.K == store.KindFloat):
		b := v.AsFloat()
		for _, i := range sel {
			if c.Null[i] {
				out.SetBool(i, false)
				continue
			}
			a := colFloat(c, i)
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			out.SetBool(i, hold(cmp))
		}
	case c.Kind == store.KindString && v.K == store.KindString:
		b := v.S
		for _, i := range sel {
			if c.Null[i] {
				out.SetBool(i, false)
				continue
			}
			a := c.Str[i]
			cmp := 0
			if a < b {
				cmp = -1
			} else if a > b {
				cmp = 1
			}
			out.SetBool(i, hold(cmp))
		}
	default:
		// Generic cells or cross-kind constants: defer to
		// store.Compare for bind's exact semantics.
		for _, i := range sel {
			cv := c.Value(i)
			if cv.IsNull() {
				out.SetBool(i, false)
				continue
			}
			out.SetBool(i, hold(store.Compare(cv, v)))
		}
	}
	return out
}

// arithColScalar evaluates +,-,*,/ between a column and a constant
// without materializing the constant. colIsLeft orients the operands.
// Semantics match arithCols cell for cell: int/int exact, any float
// promotes, NULL operands and division by zero yield NULL.
func arithColScalar(op BinOp, c *store.Col, v store.Value, n int, sel []int, colIsLeft bool) *store.Col {
	if v.IsNull() {
		return store.NewDenseCol(store.KindNull, n)
	}
	apply := func(cell, scalar store.Value) store.Value {
		l, r := cell, scalar
		if !colIsLeft {
			l, r = scalar, cell
		}
		if l.K == store.KindInt && r.K == store.KindInt {
			switch op {
			case OpAdd:
				return store.IntValue(l.I + r.I)
			case OpSub:
				return store.IntValue(l.I - r.I)
			case OpMul:
				return store.IntValue(l.I * r.I)
			case OpDiv:
				if r.I != 0 {
					return store.IntValue(l.I / r.I)
				}
			}
			return store.NullValue()
		}
		lf, rf := l.AsFloat(), r.AsFloat()
		switch op {
		case OpAdd:
			return store.FloatValue(lf + rf)
		case OpSub:
			return store.FloatValue(lf - rf)
		case OpMul:
			return store.FloatValue(lf * rf)
		case OpDiv:
			if rf != 0 {
				return store.FloatValue(lf / rf)
			}
		}
		return store.NullValue()
	}
	switch {
	case c.Kind == store.KindInt && v.K == store.KindInt:
		out := store.NewDenseCol(store.KindInt, n)
		s := v.I
		for _, i := range sel {
			if c.Null[i] {
				continue
			}
			a, b := c.Int[i], s
			if !colIsLeft {
				a, b = s, c.Int[i]
			}
			switch op {
			case OpAdd:
				out.SetInt(i, a+b)
			case OpSub:
				out.SetInt(i, a-b)
			case OpMul:
				out.SetInt(i, a*b)
			case OpDiv:
				if b != 0 {
					out.SetInt(i, a/b)
				}
			}
		}
		return out
	case numericColKind(c.Kind) && (v.K == store.KindInt || v.K == store.KindFloat):
		out := store.NewDenseCol(store.KindFloat, n)
		s := v.AsFloat()
		for _, i := range sel {
			if c.Null[i] {
				continue
			}
			a, b := colFloat(c, i), s
			if !colIsLeft {
				a, b = s, colFloat(c, i)
			}
			switch op {
			case OpAdd:
				out.SetFloat(i, a+b)
			case OpSub:
				out.SetFloat(i, a-b)
			case OpMul:
				out.SetFloat(i, a*b)
			case OpDiv:
				if b != 0 {
					out.SetFloat(i, a/b)
				}
			}
		}
		return out
	}
	// Generic cells: mirror arithCols' scalar fallback.
	out := store.NewDenseCol(store.KindNull, n)
	for _, i := range sel {
		cv := c.Value(i)
		if cv.IsNull() {
			continue
		}
		if r := apply(cv, v); !r.IsNull() {
			out.SetValue(i, r)
		}
	}
	return out
}

// bindVecSubtree compiles WITHIN_SUBTREE to a preorder-interval loop,
// resolving the tree node and column exactly as bindSubtree does.
func bindVecSubtree(x *SubtreeExpr, env bindEnv) (*vecExpr, error) {
	if env.tree == nil {
		return nil, errSubtreeNoTree()
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
		return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
			c := b.cols[idx]
			out := store.NewDenseCol(store.KindBool, b.n)
			if c.Kind == store.KindString {
				for _, i := range sel {
					out.SetBool(i, !c.Null[i] && member[c.Str[i]])
				}
				return out, nil
			}
			for _, i := range sel {
				v := c.Value(i)
				out.SetBool(i, v.K == store.KindString && member[v.S])
			}
			return out, nil
		}}, nil
	}
	return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
		c := b.cols[idx]
		out := store.NewDenseCol(store.KindBool, b.n)
		if c.Kind == store.KindInt {
			for _, i := range sel {
				out.SetBool(i, !c.Null[i] && c.Int[i] >= int64(lo) && c.Int[i] <= int64(hi))
			}
			return out, nil
		}
		for _, i := range sel {
			v := c.Value(i)
			out.SetBool(i, v.K == store.KindInt && v.I >= int64(lo) && v.I <= int64(hi))
		}
		return out, nil
	}}, nil
}

// bindVecAncestor compiles ANCESTOR_OF to a preorder-set loop,
// resolving the path exactly as bindAncestor does.
func bindVecAncestor(x *AncestorExpr, env bindEnv) (*vecExpr, error) {
	if env.tree == nil {
		return nil, errAncestorNoTree()
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
	return &vecExpr{kind: store.KindBool, eval: func(b *batch, sel []int) (*store.Col, error) {
		c := b.cols[idx]
		out := store.NewDenseCol(store.KindBool, b.n)
		if c.Kind == store.KindInt {
			for _, i := range sel {
				out.SetBool(i, !c.Null[i] && path[c.Int[i]])
			}
			return out, nil
		}
		for _, i := range sel {
			v := c.Value(i)
			out.SetBool(i, v.K == store.KindInt && path[v.I])
		}
		return out, nil
	}}, nil
}

// bindVecPred compiles a predicate to a batch filter. Vectorizable
// predicates narrow the selection with batch loops; everything else
// evaluates the row-compiled predicate row by row, preserving the row
// engine's error order exactly.
func bindVecPred(e Expr, env bindEnv) (*vecPred, error) {
	if _, ok := vecSafe(e, env.schema); ok {
		ve, err := bindVec(e, env)
		if err != nil {
			return nil, err
		}
		return &vecPred{filter: func(b *batch, sel []int) ([]int, error) {
			c, err := ve.eval(b, sel)
			if err != nil {
				return nil, err
			}
			out := sel[:0:0] // fresh backing: sel may be shared
			for _, i := range sel {
				if colTrue(c, i) {
					out = append(out, i)
				}
			}
			return out, nil
		}}, nil
	}
	be, err := bind(e, env)
	if err != nil {
		return nil, err
	}
	return &vecPred{filter: func(b *batch, sel []int) ([]int, error) {
		var out []int
		var scratch store.Row
		for _, i := range sel {
			scratch = b.rowAt(i, scratch)
			ok, err := be.evalBool(scratch)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, i)
			}
		}
		return out, nil
	}}, nil
}

// bindVecExprs compiles a list of expressions with bindVecExpr.
func bindVecExprs(exprs []Expr, env bindEnv) ([]*vecExpr, error) {
	out := make([]*vecExpr, len(exprs))
	for i, e := range exprs {
		ve, err := bindVecExpr(e, env)
		if err != nil {
			return nil, err
		}
		out[i] = ve
	}
	return out, nil
}

// bindVecExpr compiles an output expression: vectorizable shapes get
// batch loops, the rest evaluate the row-compiled form per row
// (allocating per call, so compiled expressions stay shareable across
// parallel workers).
func bindVecExpr(e Expr, env bindEnv) (*vecExpr, error) {
	if _, ok := vecSafe(e, env.schema); ok {
		return bindVec(e, env)
	}
	be, err := bind(e, env)
	if err != nil {
		return nil, err
	}
	return rowEvalVec(be), nil
}
