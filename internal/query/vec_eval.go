package query

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"drugtree/internal/chem"
	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// Expression compilation. bindVec is the one expression compiler: it
// compiles an expression to a per-batch evaluator that loops over typed
// column slices, and bindVecPred compiles a predicate to a filter that
// narrows a selection vector. Planning binds with validateOnly set, for
// the errors and the static result kinds alone.
//
// Row order. Negation, NOT and arithmetic fail at evaluation time over
// cells that are not numbers (booleans, for NOT). A statement reports
// the error of the first row that fails, in selection order, with the
// left operand before the right within a row: what evaluating row by
// row reports. So an evaluator that fails returns a *rowError naming
// the row, with its column defined at the rows ahead of it; an operand
// after a failed one runs only over those rows, and its own error wins
// only if it comes earlier.

// vecExpr is a compiled expression: eval returns a column with b.n
// cells whose values are defined at the positions listed in sel (other
// cells are unspecified), or — when a row fails — the error of the
// first failing row in sel order and the column defined at the rows of
// sel ahead of it. Implementations are stateless, so one compiled
// expression can be shared between goroutines. A column reference or
// a constant needs no closure; a validate-only bind may leave an
// expression with its kind alone, never evaluated.
type vecExpr struct {
	fn func(b *batch, sel []int) (*store.Col, error)
	// cmp, set for a comparison instead of fn, evaluates it into a sink:
	// a bool column as an expression, the rows where it holds as a
	// predicate.
	cmp func(b *batch, sel []int, out cmpSink) (cmpSink, error)
	// lit, when isLit, is the expression's value at every row — a
	// literal or an executed scalar subquery —, which binary operators
	// take as a scalar instead of a column; litKind is the kind of the
	// column it fills otherwise.
	lit store.Value
	// col is the batch column a column reference reads.
	col     int32
	kind    store.Kind
	isLit   bool
	litKind store.Kind
}

func (e *vecExpr) eval(b *batch, sel []int) (*store.Col, error) {
	switch {
	case e.fn != nil:
		return e.fn(b, sel)
	case e.cmp != nil:
		out, err := e.cmp(b, sel, cmpSink{col: b.newCol(store.KindBool)})
		return out.col, err
	case e.isLit:
		out := b.newCol(e.litKind)
		if !e.lit.IsNull() {
			for _, i := range sel {
				out.SetValue(i, e.lit)
			}
		}
		return out, nil
	}
	return b.cols[e.col], nil
}

// kindOnly is the expression that carries kind k alone: what a
// validate-only bind returns, shared, as nothing evaluates it.
func kindOnly(k store.Kind) *vecExpr { return &kindOnlyExprs[k] }

var kindOnlyExprs = [...]vecExpr{{kind: store.KindNull}, {kind: store.KindInt}, {kind: store.KindFloat}, {kind: store.KindString}, {kind: store.KindBool}}

// vecPred is a compiled predicate: it narrows sel to the rows where the
// predicate is a non-NULL true.
type vecPred func(b *batch, sel []int) ([]int, error)

// rowError is an evaluation error and the batch row that raised it.
type rowError struct {
	row int
	err error
}

func (e *rowError) Error() string { return e.err.Error() }
func (e *rowError) Unwrap() error { return e.err }

// failAt is the error row i raises, formatted as by fmt.Errorf.
func failAt(i int, format string, args ...any) error {
	return &rowError{row: i, err: fmt.Errorf(format, args...)}
}

// rowsBefore cuts sel to the positions ahead of the first one holding
// the row err names (nothing, for an error no row raised).
func rowsBefore(sel []int, err error) []int {
	if re := (*rowError)(nil); errors.As(err, &re) {
		for k, i := range sel {
			if i == re.row {
				return sel[:k]
			}
		}
	}
	return sel[:0]
}

// evalAll evaluates exprs over sel into cols, row-major: an expression
// after a failed one runs only over the rows ahead of the failure. It
// returns the first failing row's error. Nil entries are skipped.
func evalAll(exprs []*vecExpr, b *batch, sel []int, cols []*store.Col) error {
	var first error
	for i, e := range exprs {
		if e == nil {
			continue
		}
		c, err := e.eval(b, sel)
		cols[i] = c
		if err != nil {
			sel, first = rowsBefore(sel, err), err
		}
	}
	return first
}

// colPool recycles the columns and selection vectors evaluations
// allocate. A batch that carries one — the index residual's, which
// evaluates chunk after chunk — takes them from it, reset as new,
// instead of the heap; reset hands them all out again.
type colPool struct {
	cols []store.Col
	sels [][]int
	nc   int
	ns   int
}

func (p *colPool) reset() { p.nc, p.ns = 0, 0 }

// newCol returns a column of b.n NULL cells of the given kind.
func (b *batch) newCol(kind store.Kind) *store.Col {
	p := b.pool
	if p == nil {
		return store.NewDenseCol(kind, b.n)
	}
	if p.nc == len(p.cols) {
		// A column handed out before keeps its storage: the copy in the
		// grown list shares it, and is what the next reset reuses.
		p.cols = append(p.cols, store.Col{})
	}
	c := &p.cols[p.nc]
	p.nc++
	c.Kind = kind
	c.Null = resized(c.Null, b.n)
	for i := range c.Null {
		c.Null[i] = true
	}
	switch kind {
	case store.KindInt, store.KindBool, store.KindCode:
		c.Int = resized(c.Int, b.n)
		clear(c.Int)
	case store.KindFloat:
		c.Float = resized(c.Float, b.n)
		clear(c.Float)
	case store.KindString:
		c.Str = resized(c.Str, b.n)
		clear(c.Str)
	default:
		c.Vals = resized(c.Vals, b.n)
		clear(c.Vals)
	}
	return c
}

// newSel returns an empty selection vector with room for n rows.
func (b *batch) newSel(n int) []int {
	p := b.pool
	if p == nil {
		return make([]int, 0, n)
	}
	if p.ns == len(p.sels) {
		p.sels = append(p.sels, nil)
	}
	s := p.sels[p.ns]
	if cap(s) < n {
		s = make([]int, 0, n)
		p.sels[p.ns] = s
	}
	p.ns++
	return s[:0]
}

// passSel returns an empty selection vector for the rows of sel a
// filter passes: from the pool, or a fresh one (sel may be shared).
func (b *batch) passSel(sel []int) []int {
	if b.pool != nil {
		return b.newSel(len(sel))
	}
	return sel[:0:0]
}

// decodedAt returns c with its cells at sel readable as Values: c
// itself unless it is coded, else a STRING column of b's rows whose
// cells at sel are c's decoded through d. Operators carry a coded column
// as its codes; an evaluation that reads a name's string — an order, a
// pattern, a function of it — decodes it here.
func decodedAt(b *batch, c *store.Col, sel []int, d *store.Dict) *store.Col {
	if c.Kind != store.KindCode {
		return c
	}
	out := b.newCol(store.KindString)
	d.Decode(out, c, sel)
	return out
}

// resized returns x with length n, reallocated only when its capacity
// falls short.
func resized[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n)
	}
	return x[:n]
}

// bindVec compiles e against env.
func bindVec(e Expr, env bindEnv) (*vecExpr, error) {
	switch x := e.(type) {
	case *Literal:
		if env.validateOnly {
			return kindOnly(x.Val.K), nil
		}
		return constVec(x.Val, x.Val.K), nil
	case *ColumnRef:
		idx, err := env.schema.resolve(x)
		if err != nil {
			return nil, err
		}
		if env.validateOnly {
			return kindOnly(env.schema.cols[idx].Kind), nil
		}
		return &vecExpr{kind: env.schema.cols[idx].Kind, col: int32(idx)}, nil
	case *NegExpr:
		inner, err := bindVec(x.E, env)
		if err != nil {
			return nil, err
		}
		if env.validateOnly {
			return inner, nil
		}
		return &vecExpr{kind: inner.kind, fn: func(b *batch, sel []int) (*store.Col, error) {
			c, sel, err := evalOver(inner, b, sel)
			out, nerr := negCol(b, decodedAt(b, c, sel, env.dict), sel)
			return out, earlier(nerr, err)
		}}, nil
	case *NotExpr:
		inner, err := bindVec(x.E, env)
		if err != nil {
			return nil, err
		}
		if env.validateOnly {
			return kindOnly(store.KindBool), nil
		}
		return &vecExpr{kind: store.KindBool, fn: func(b *batch, sel []int) (*store.Col, error) {
			c, sel, err := evalOver(inner, b, sel)
			out, nerr := notCol(b, decodedAt(b, c, sel, env.dict), sel)
			return out, earlier(nerr, err)
		}}, nil
	case *BinaryExpr:
		return bindVecBinary(x, env)
	case *SubtreeExpr:
		return bindVecSubtree(x, env)
	case *AncestorExpr:
		return bindVecAncestor(x, env)
	case *TanimotoExpr:
		return bindVecTanimoto(x, env)
	case *SubqueryExpr:
		return bindVecScalarSubquery(x, env)
	case *InSubqueryExpr:
		return bindVecInSubquery(x, env)
	case *AggExpr:
		return nil, fmt.Errorf("query: aggregate %s not allowed here", x)
	}
	return nil, fmt.Errorf("query: cannot bind %T", e)
}

// constVec is the expression whose value is v at every row, of static
// kind kind: a column of v's kind when that is kind, else a generic one.
func constVec(v store.Value, kind store.Kind) *vecExpr {
	storage := store.KindNull
	if v.K == kind {
		storage = kind
	}
	return &vecExpr{kind: kind, lit: v, isLit: true, litKind: storage}
}

// negCol negates the cells of c at sel: NULL stays NULL, and a cell that
// is not a number fails.
func negCol(b *batch, c *store.Col, sel []int) (*store.Col, error) {
	switch c.Kind {
	case store.KindInt:
		out := b.newCol(store.KindInt)
		for _, i := range sel {
			if !c.Null[i] {
				out.SetInt(i, -c.Int[i])
			}
		}
		return out, nil
	case store.KindFloat:
		out := b.newCol(store.KindFloat)
		for _, i := range sel {
			if !c.Null[i] {
				out.SetFloat(i, -c.Float[i])
			}
		}
		return out, nil
	}
	out := b.newCol(store.KindNull)
	for _, i := range sel {
		switch v := c.Value(i); v.K {
		case store.KindNull:
		case store.KindInt:
			out.SetValue(i, store.IntValue(-v.I))
		case store.KindFloat:
			out.SetValue(i, store.FloatValue(-v.F))
		default:
			return out, failAt(i, "query: cannot negate %v", v.K)
		}
	}
	return out, nil
}

// notCol negates the cells of c at sel: NULL is false, and a cell that
// is not a boolean fails.
func notCol(b *batch, c *store.Col, sel []int) (*store.Col, error) {
	out := b.newCol(store.KindBool)
	if c.Kind == store.KindBool {
		for _, i := range sel {
			out.SetBool(i, !c.Null[i] && c.Int[i] == 0)
		}
		return out, nil
	}
	for _, i := range sel {
		switch v := c.Value(i); v.K {
		case store.KindNull:
			out.SetBool(i, false)
		case store.KindBool:
			out.SetBool(i, !v.Bool())
		default:
			return out, failAt(i, "query: NOT expects BOOL, got %v", v.K)
		}
	}
	return out, nil
}

// colTrue reports whether cell i is a non-NULL boolean true.
func colTrue(c *store.Col, i int) bool {
	b, _ := colBool(c, i)
	return b
}

// colBool reports (value, isBool) for cell i: isBool is true only for
// a non-NULL boolean cell.
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

// evalOver evaluates e over sel: its column, the rows of sel it is
// defined at — those ahead of its first failing row — and that row's
// error.
func evalOver(e *vecExpr, b *batch, sel []int) (*store.Col, []int, error) {
	c, err := e.eval(b, sel)
	if err != nil {
		sel = rowsBefore(sel, err)
	}
	return c, sel, err
}

// operands evaluates l, then r, over sel in row order: both columns, the
// rows of sel both are defined at, and the first failing row's error.
func operands(l, r *vecExpr, b *batch, sel []int) (lc, rc *store.Col, ok []int, err error) {
	lc, sel, err = evalOver(l, b, sel)
	rc, sel, rerr := evalOver(r, b, sel)
	return lc, rc, sel, earlier(rerr, err)
}

// earlier is the error of a step run over the rows ahead of a failed
// one: its own when it failed there, else the failed step's.
func earlier(own, before error) error {
	if own != nil {
		return own
	}
	return before
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
	if env.validateOnly {
		kind := store.KindBool
		if op != OpAnd && op != OpOr && !op.Comparison() {
			kind = arithKind(l.kind, r.kind)
		}
		return kindOnly(kind), nil
	}
	d := env.dict
	switch {
	case op == OpAnd || op == OpOr:
		return bindVecLogic(op == OpAnd, l, r), nil
	case op == OpLike:
		return bindVecLike(l, r, d), nil
	case op.Comparison():
		return bindVecCompare(op, l, r, d), nil
	}
	kind := arithKind(l.kind, r.kind)
	// A constant operand is kept as a scalar rather than materialized
	// into a column on every eval.
	if r.isLit || l.isLit {
		colIsLeft, col, v := r.isLit, l, r.lit
		if !colIsLeft {
			col, v = r, l.lit
		}
		return &vecExpr{kind: kind, fn: func(b *batch, sel []int) (*store.Col, error) {
			c, sel, err := evalOver(col, b, sel)
			out, aerr := arithColScalar(b, op, decodedAt(b, c, sel, d), v, sel, colIsLeft)
			return out, earlier(aerr, err)
		}}, nil
	}
	return &vecExpr{kind: kind, fn: func(b *batch, sel []int) (*store.Col, error) {
		lc, rc, sel, err := operands(l, r, b, sel)
		out, aerr := arithCols(b, op, decodedAt(b, lc, sel, d), decodedAt(b, rc, sel, d), sel)
		return out, earlier(aerr, err)
	}}, nil
}

// bindVecLogic compiles AND (isAnd) or OR. The rows whose outcome the
// left side decides are settled first; the right side is evaluated
// only over the remainder, so it never fails at a row it does not
// decide.
func bindVecLogic(isAnd bool, l, r *vecExpr) *vecExpr {
	return &vecExpr{kind: store.KindBool, fn: func(b *batch, sel []int) (*store.Col, error) {
		lc, sel, err := evalOver(l, b, sel)
		out := b.newCol(store.KindBool)
		need := b.newSel(len(sel))
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
			return out, err
		}
		rc, need, rerr := evalOver(r, b, need)
		err = earlier(rerr, err)
		for _, i := range need {
			lb, rb := colTrue(lc, i), colTrue(rc, i)
			if isAnd {
				out.SetBool(i, lb && rb)
			} else {
				out.SetBool(i, lb || rb)
			}
		}
		return out, err
	}}
}

// bindVecLike compiles LIKE: true only when both sides are strings and
// the left matches the right's pattern (coded names decoded through d).
func bindVecLike(l, r *vecExpr, d *store.Dict) *vecExpr {
	if r.isLit {
		pat := r.lit
		return &vecExpr{kind: store.KindBool, fn: func(b *batch, sel []int) (*store.Col, error) {
			lc, sel, err := evalOver(l, b, sel)
			out := b.newCol(store.KindBool)
			switch {
			case pat.K != store.KindString:
				for _, i := range sel {
					out.SetBool(i, false)
				}
			case lc.Kind == store.KindString:
				for _, i := range sel {
					out.SetBool(i, !lc.Null[i] && likeMatch(lc.Str[i], pat.S))
				}
			case lc.Kind == store.KindCode:
				names := d.Names()
				for _, i := range sel {
					out.SetBool(i, !lc.Null[i] && likeMatch(names[lc.Int[i]], pat.S))
				}
			default:
				for _, i := range sel {
					lv := lc.Value(i) // a generic cell: lc is not coded
					out.SetBool(i, lv.K == store.KindString && likeMatch(lv.S, pat.S))
				}
			}
			return out, err
		}}
	}
	return &vecExpr{kind: store.KindBool, fn: func(b *batch, sel []int) (*store.Col, error) {
		lc, rc, sel, err := operands(l, r, b, sel)
		lc, rc = decodedAt(b, lc, sel, d), decodedAt(b, rc, sel, d)
		out := b.newCol(store.KindBool)
		if lc.Kind == store.KindString && rc.Kind == store.KindString {
			for _, i := range sel {
				out.SetBool(i, !lc.Null[i] && !rc.Null[i] && likeMatch(lc.Str[i], rc.Str[i]))
			}
			return out, err
		}
		for _, i := range sel {
			lv, rv := lc.Value(i), rc.Value(i)
			out.SetBool(i, lv.K == store.KindString && rv.K == store.KindString && likeMatch(lv.S, rv.S))
		}
		return out, err
	}}
}

// bindVecCompare compiles a comparison; a constant operand stays a
// scalar. Codes are in first-seen order, not the strings' order, so
// coded names are compared by code only under = and <>: two coded
// columns code against code, a coded column and a string literal against
// the literal's code, looked up in d once here (a string d lacks equals
// no coded cell). Every other comparison decodes them.
func bindVecCompare(op BinOp, l, r *vecExpr, d *store.Dict) *vecExpr {
	byCode := op == OpEq || op == OpNe
	if r.isLit || l.isLit {
		colIsLeft, col, v := r.isLit, l, r.lit
		if !colIsLeft {
			col, v = r, l.lit
		}
		code, coded := int64(-1), byCode && v.K == store.KindString && d != nil
		if coded {
			if c, ok := d.Code(v.S); ok {
				code = c
			}
		}
		return &vecExpr{kind: store.KindBool, cmp: func(b *batch, sel []int, out cmpSink) (cmpSink, error) {
			c, sel, err := evalOver(col, b, sel)
			if coded && c.Kind == store.KindCode {
				for _, i := range sel {
					out.put(i, !c.Null[i] && (c.Int[i] == code) == (op == OpEq))
				}
				return out, err
			}
			return compareColScalar(op, decodedAt(b, c, sel, d), v, sel, colIsLeft, out), err
		}}
	}
	return &vecExpr{kind: store.KindBool, cmp: func(b *batch, sel []int, out cmpSink) (cmpSink, error) {
		lc, rc, sel, err := operands(l, r, b, sel)
		if byCode && lc.Kind == store.KindCode && rc.Kind == store.KindCode {
			for _, i := range sel {
				out.put(i, !lc.Null[i] && !rc.Null[i] && (lc.Int[i] == rc.Int[i]) == (op == OpEq))
			}
			return out, err
		}
		return compareCols(op, decodedAt(b, lc, sel, d), decodedAt(b, rc, sel, d), sel, out), err
	}}
}

// cmpSink takes a comparison's outcome row by row: into a bool column,
// or — col nil — as the rows where it holds.
type cmpSink struct {
	col  *store.Col
	rows []int
}

func (s *cmpSink) put(i int, holds bool) {
	if s.col != nil {
		s.col.SetBool(i, holds)
	} else if holds {
		s.rows = append(s.rows, i)
	}
}

// cmpHolds applies a comparison operator to a store.Compare result.
func cmpHolds(op BinOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// compareCols evaluates a comparison over two aligned columns into out.
// Comparisons with NULL are false; other cells compare exactly as
// store.Compare does: int/int exactly, mixed numerics as float64 with
// NaN below every number and equal only to NaN, strings bytewise.
func compareCols(op BinOp, lc, rc *store.Col, sel []int, out cmpSink) cmpSink {
	switch {
	case lc.Kind == store.KindInt && rc.Kind == store.KindInt:
		for _, i := range sel {
			out.put(i, !lc.Null[i] && !rc.Null[i] && cmpHolds(op, cmp.Compare(lc.Int[i], rc.Int[i])))
		}
	case numericColKind(lc.Kind) && numericColKind(rc.Kind):
		for _, i := range sel {
			out.put(i, !lc.Null[i] && !rc.Null[i] && cmpHolds(op, cmp.Compare(colFloat(lc, i), colFloat(rc, i))))
		}
	case lc.Kind == store.KindString && rc.Kind == store.KindString:
		for _, i := range sel {
			out.put(i, !lc.Null[i] && !rc.Null[i] && cmpHolds(op, cmp.Compare(lc.Str[i], rc.Str[i])))
		}
	default:
		for _, i := range sel {
			lv, rv := lc.Value(i), rc.Value(i)
			out.put(i, !lv.IsNull() && !rv.IsNull() && cmpHolds(op, store.Compare(lv, rv)))
		}
	}
	return out
}

// compareColScalar is compareCols between a column and a constant;
// colIsLeft orients the comparison (col op v, or v op col).
func compareColScalar(op BinOp, c *store.Col, v store.Value, sel []int, colIsLeft bool, out cmpSink) cmpSink {
	if !colIsLeft {
		op = flipCompare(op)
	}
	switch {
	case v.IsNull():
		for _, i := range sel {
			out.put(i, false)
		}
	case c.Kind == store.KindInt && v.K == store.KindInt:
		for _, i := range sel {
			out.put(i, !c.Null[i] && cmpHolds(op, cmp.Compare(c.Int[i], v.I)))
		}
	case numericColKind(c.Kind) && v.Numeric():
		s := v.AsFloat()
		for _, i := range sel {
			out.put(i, !c.Null[i] && cmpHolds(op, cmp.Compare(colFloat(c, i), s)))
		}
	case c.Kind == store.KindString && v.K == store.KindString:
		for _, i := range sel {
			out.put(i, !c.Null[i] && cmpHolds(op, cmp.Compare(c.Str[i], v.S)))
		}
	default:
		for _, i := range sel {
			cv := c.Value(i)
			out.put(i, !cv.IsNull() && cmpHolds(op, store.Compare(cv, v)))
		}
	}
	return out
}

// flipCompare is the comparison with its operands swapped: v op col
// holds exactly when col flipCompare(op) v does.
func flipCompare(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
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

// arithKind is the static result kind of arithmetic: int/int stays
// int, anything else is float.
func arithKind(lk, rk store.Kind) store.Kind {
	if lk == store.KindInt && rk == store.KindInt {
		return store.KindInt
	}
	return store.KindFloat
}

// arithInt and arithFloat apply +,-,*,/; ok is false for a division by
// zero, whose result is NULL.
func arithInt(op BinOp, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	}
	if b == 0 {
		return 0, false
	}
	return a / b, true
}

func arithFloat(op BinOp, a, b float64) (float64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	}
	if b == 0 {
		return 0, false
	}
	return a / b, true
}

// arithValue is one row's arithmetic over any cells: NULL when an
// operand is NULL, a failure when one is not a number, exact int/int,
// float64 otherwise.
func arithValue(op BinOp, l, r store.Value) (store.Value, bool) {
	switch {
	case l.IsNull() || r.IsNull():
		return store.NullValue(), true
	case !l.Numeric() || !r.Numeric():
		return store.NullValue(), false
	case l.K == store.KindInt && r.K == store.KindInt:
		if x, ok := arithInt(op, l.I, r.I); ok {
			return store.IntValue(x), true
		}
	default:
		if x, ok := arithFloat(op, l.AsFloat(), r.AsFloat()); ok {
			return store.FloatValue(x), true
		}
	}
	return store.NullValue(), true
}

// arithCols evaluates +,-,*,/ over two aligned columns: int/int stays
// exact integer arithmetic, any float operand promotes to float64, NULL
// operands and division by zero yield NULL, and a row with an operand
// that is not a number fails.
func arithCols(b *batch, op BinOp, lc, rc *store.Col, sel []int) (*store.Col, error) {
	switch {
	case lc.Kind == store.KindInt && rc.Kind == store.KindInt:
		out := b.newCol(store.KindInt)
		for _, i := range sel {
			if !lc.Null[i] && !rc.Null[i] {
				if x, ok := arithInt(op, lc.Int[i], rc.Int[i]); ok {
					out.SetInt(i, x)
				}
			}
		}
		return out, nil
	case numericColKind(lc.Kind) && numericColKind(rc.Kind):
		out := b.newCol(store.KindFloat)
		for _, i := range sel {
			if !lc.Null[i] && !rc.Null[i] {
				if x, ok := arithFloat(op, colFloat(lc, i), colFloat(rc, i)); ok {
					out.SetFloat(i, x)
				}
			}
		}
		return out, nil
	}
	out := b.newCol(store.KindNull)
	for _, i := range sel {
		v, ok := arithValue(op, lc.Value(i), rc.Value(i))
		if !ok {
			return out, failAt(i, "query: %v on non-numeric operands", op)
		}
		out.SetValue(i, v)
	}
	return out, nil
}

// arithColScalar is arithCols between a column and a constant;
// colIsLeft orients the operands.
func arithColScalar(b *batch, op BinOp, c *store.Col, v store.Value, sel []int, colIsLeft bool) (*store.Col, error) {
	switch {
	case c.Kind == store.KindInt && v.K == store.KindInt:
		out := b.newCol(store.KindInt)
		for _, i := range sel {
			if c.Null[i] {
				continue
			}
			x, y := c.Int[i], v.I
			if !colIsLeft {
				x, y = y, x
			}
			if z, ok := arithInt(op, x, y); ok {
				out.SetInt(i, z)
			}
		}
		return out, nil
	case numericColKind(c.Kind) && v.Numeric():
		out := b.newCol(store.KindFloat)
		s := v.AsFloat()
		for _, i := range sel {
			if c.Null[i] {
				continue
			}
			x, y := colFloat(c, i), s
			if !colIsLeft {
				x, y = y, x
			}
			if z, ok := arithFloat(op, x, y); ok {
				out.SetFloat(i, z)
			}
		}
		return out, nil
	}
	out := b.newCol(store.KindNull)
	for _, i := range sel {
		x, y := c.Value(i), v
		if !colIsLeft {
			x, y = y, x
		}
		z, ok := arithValue(op, x, y)
		if !ok {
			return out, failAt(i, "query: %v on non-numeric operands", op)
		}
		out.SetValue(i, z)
	}
	return out, nil
}

// bindVecSubtree compiles WITHIN_SUBTREE to a preorder-interval test:
// over an INT column on the preorder number itself, over a STRING column
// (accessions naming tree nodes directly) on the node Tree.NodeByName
// resolves the name to — the one name resolution the overlay and the
// tree's ranking of names share, so a duplicated name counts at one node
// only.
func bindVecSubtree(x *SubtreeExpr, env bindEnv) (*vecExpr, error) {
	if env.tree == nil {
		return nil, fmt.Errorf("query: WITHIN_SUBTREE requires a tree-backed catalog")
	}
	node, err := findTreeNode(env.tree, x.Node)
	if err != nil {
		return nil, err
	}
	tree := env.tree
	lo, hi := tree.SubtreeInterval(node)
	idx, err := env.schema.resolve(x.Column)
	if err != nil {
		return nil, err
	}
	if env.validateOnly {
		return kindOnly(store.KindBool), nil
	}
	if env.schema.cols[idx].Kind == store.KindString {
		within := func(name string) bool {
			id, ok := tree.NodeByName(name)
			return ok && tree.IsAncestor(node, id)
		}
		return &vecExpr{kind: store.KindBool, fn: func(b *batch, sel []int) (*store.Col, error) {
			c := b.cols[idx]
			out := b.newCol(store.KindBool)
			switch c.Kind {
			case store.KindString:
				for _, i := range sel {
					out.SetBool(i, !c.Null[i] && within(c.Str[i]))
				}
				return out, nil
			case store.KindCode:
				names := env.dict.Names()
				for _, i := range sel {
					out.SetBool(i, !c.Null[i] && within(names[c.Int[i]]))
				}
				return out, nil
			}
			for _, i := range sel {
				v := c.Value(i)
				out.SetBool(i, v.K == store.KindString && within(v.S))
			}
			return out, nil
		}}, nil
	}
	return &vecExpr{kind: store.KindBool, fn: func(b *batch, sel []int) (*store.Col, error) {
		c := decodedAt(b, b.cols[idx], sel, env.dict)
		out := b.newCol(store.KindBool)
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

// bindVecAncestor compiles ANCESTOR_OF, on a relation without end_pre
// (with it, the optimizer rewrote it to an interval test), to
// Tree.IsAncestor on the node at each row's preorder number.
func bindVecAncestor(x *AncestorExpr, env bindEnv) (*vecExpr, error) {
	if env.tree == nil {
		return nil, fmt.Errorf("query: ANCESTOR_OF requires a tree-backed catalog")
	}
	node, err := findTreeNode(env.tree, x.Node)
	if err != nil {
		return nil, err
	}
	tree := env.tree
	onPath := func(p int64) bool {
		return p >= 0 && p < int64(tree.Len()) && tree.IsAncestor(phylo.NodeID(p), node)
	}
	idx, err := env.schema.resolve(x.Column)
	if err != nil {
		return nil, err
	}
	if env.validateOnly {
		return kindOnly(store.KindBool), nil
	}
	return &vecExpr{kind: store.KindBool, fn: func(b *batch, sel []int) (*store.Col, error) {
		c := decodedAt(b, b.cols[idx], sel, env.dict)
		out := b.newCol(store.KindBool)
		if c.Kind == store.KindInt {
			for _, i := range sel {
				out.SetBool(i, !c.Null[i] && onPath(c.Int[i]))
			}
			return out, nil
		}
		for _, i := range sel {
			v := c.Value(i)
			out.SetBool(i, v.K == store.KindInt && onPath(v.I))
		}
		return out, nil
	}}, nil
}

// bindVecTanimoto parses and fingerprints the reference SMILES at bind
// time, then scores each row's SMILES against it: NULL for a cell that
// is not a string or does not parse. Row fingerprints are memoized by
// SMILES string (ligand relations repeat molecules across rows far more
// than they vary).
func bindVecTanimoto(x *TanimotoExpr, env bindEnv) (*vecExpr, error) {
	ref, err := chem.ParseSMILES(x.SMILES)
	if err != nil {
		return nil, fmt.Errorf("query: TANIMOTO reference: %w", err)
	}
	idx, err := env.schema.resolve(x.Column)
	if err != nil {
		return nil, err
	}
	if env.validateOnly {
		return kindOnly(store.KindFloat), nil
	}
	refFP, err := ref.ComputeFingerprint()
	if err != nil {
		return nil, fmt.Errorf("query: TANIMOTO reference: %w", err)
	}
	const memoCap = 1 << 16
	// The memo is shared by every evaluation of this expression; the
	// mutex keeps the expression safe to share between goroutines, as
	// vecExpr promises (fingerprinting dwarfs the lock cost).
	var memoMu sync.Mutex
	memo := make(map[string]*chem.Fingerprint)
	fingerprint := func(s string) *chem.Fingerprint {
		memoMu.Lock()
		fp, ok := memo[s]
		memoMu.Unlock()
		if ok {
			return fp
		}
		if m, err := chem.ParseSMILES(s); err == nil {
			fp, _ = m.ComputeFingerprint()
		} // unparseable or past the path budget: score NULL, remember that
		memoMu.Lock()
		if len(memo) < memoCap {
			memo[s] = fp
		}
		memoMu.Unlock()
		return fp
	}
	return &vecExpr{kind: store.KindFloat, fn: func(b *batch, sel []int) (*store.Col, error) {
		c := decodedAt(b, b.cols[idx], sel, env.dict)
		out := b.newCol(store.KindFloat)
		for _, i := range sel {
			v := c.Value(i)
			if v.K != store.KindString {
				continue
			}
			if fp := fingerprint(v.S); fp != nil {
				out.SetFloat(i, refFP.Tanimoto(fp))
			}
		}
		return out, nil
	}}, nil
}

// bindVecScalarSubquery executes the subquery once — one column, at
// most one row, zero rows being NULL — and compiles it to that
// constant, of the subquery's column kind.
func bindVecScalarSubquery(x *SubqueryExpr, env bindEnv) (*vecExpr, error) {
	res, schema, err := runSubquery(x.Stmt, env)
	if err != nil {
		return nil, err
	}
	if env.validateOnly {
		return kindOnly(schema.cols[0].Kind), nil
	}
	if res.Batch.Rows > 1 {
		return nil, fmt.Errorf("query: scalar subquery returned %d rows", res.Batch.Rows)
	}
	v := store.NullValue()
	if res.Batch.Rows == 1 {
		v = res.Dict.Value(&res.Batch.Cols[0], 0)
	}
	return constVec(v, schema.cols[0].Kind), nil
}

// bindVecInSubquery materializes the subquery's single column into a
// set and compiles the membership test to a probe of the needle column
// (a NULL needle matches nothing), recoded to the set's form (codedAs).
func bindVecInSubquery(x *InSubqueryExpr, env bindEnv) (*vecExpr, error) {
	needle, err := bindVec(x.Needle, env)
	if err != nil {
		return nil, err
	}
	res, _, err := runSubquery(x.Stmt, env)
	if err != nil {
		return nil, err
	}
	if env.validateOnly {
		return kindOnly(store.KindBool), nil
	}
	col := &res.Batch.Cols[0]
	set := newHashTab(false, col.Len())
	for i, key := 0, []*store.Col{col}; i < col.Len(); i++ {
		set.insert(key, i) // NULLs match nothing and are not kept
	}
	coded := set.len() > 0 && set.keys[0].Kind == store.KindCode
	return &vecExpr{kind: store.KindBool, fn: func(b *batch, sel []int) (*store.Col, error) {
		nc, sel, err := evalOver(needle, b, sel)
		out := b.newCol(store.KindBool)
		key := [1]*store.Col{codedAs(coded, b, nc, sel, env.dict)}
		for _, i := range sel {
			out.SetBool(i, set.find(key[:], i) >= 0)
		}
		return out, err
	}}, nil
}

// bindVecPred compiles a predicate to a batch filter: the rows of sel
// where it is a non-NULL true, or the first failing row's error. A
// comparison collects the rows where it holds directly.
func bindVecPred(e Expr, env bindEnv) (vecPred, error) {
	ve, err := bindVec(e, env)
	if err != nil {
		return nil, err
	}
	if ve.cmp != nil {
		return func(b *batch, sel []int) ([]int, error) {
			out, err := ve.cmp(b, sel, cmpSink{rows: b.passSel(sel)})
			if err != nil {
				return nil, err
			}
			return out.rows, nil
		}, nil
	}
	return func(b *batch, sel []int) ([]int, error) {
		c, err := ve.eval(b, sel)
		if err != nil {
			return nil, err
		}
		out := b.passSel(sel)
		for _, i := range sel {
			if colTrue(c, i) {
				out = append(out, i)
			}
		}
		return out, nil
	}, nil
}

// bindVecs compiles a list of expressions.
func bindVecs(exprs []Expr, env bindEnv) ([]*vecExpr, error) {
	out := make([]*vecExpr, len(exprs))
	for i, e := range exprs {
		ve, err := bindVec(e, env)
		if err != nil {
			return nil, err
		}
		out[i] = ve
	}
	return out, nil
}
