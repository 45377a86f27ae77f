package query

import (
	"fmt"
	"sync/atomic"

	"drugtree/internal/store"
)

// Vectorized physical plan construction. buildVec mirrors
// buildIterator node for node and emits byte-identical plan notes, so
// EXPLAIN output — and the differential harness's plan-equality
// assertion — cannot tell the engines apart. Operators whose
// expressions vectorize run as batch loops; subtrees the batch model
// cannot reproduce exactly (merge join, nested-loop join, sorts, and
// any operator with an error-capable expression) reuse the row
// operators verbatim, bridged with rowsFromBatches/batchesFromRows, so
// their semantics cannot drift from the row engine's.

// built is the result of lowering one plan node: exactly one of b
// (vectorized) or r (row fallback) is set.
type built struct {
	b batchIterator
	r iterator
}

// batches adapts the subtree to the batch interface, bridging row
// fallbacks through generic columns.
func (bu built) batches(width int, ec *execCtx) batchIterator {
	if bu.b != nil {
		return bu.b
	}
	return &batchesFromRows{in: bu.r, width: width, cancel: canceller{ctx: ec.ctx}}
}

// rows adapts the subtree to the row interface; batch output is
// materialized row by row as fresh store.Rows.
func (bu built) rows(ec *execCtx) iterator {
	if bu.r != nil {
		return bu.r
	}
	return &rowsFromBatches{in: bu.b, cancel: canceller{ctx: ec.ctx}}
}

// buildVec lowers a logical plan node to a vectorized operator tree.
func buildVec(p LogicalPlan, ec *execCtx, depth int) (built, error) {
	switch n := p.(type) {
	case *ScanNode:
		return buildScanVec(n, ec, depth)
	case *FilterNode:
		pred, err := bindVecPred(n.Pred, ec.env(n.Input.Schema()))
		if err != nil {
			return built{}, err
		}
		op := ec.note(depth, "Filter %s", n.Pred)
		in, err := buildVec(n.Input, ec, depth+1)
		if err != nil {
			return built{}, err
		}
		return built{b: &vecFilter{
			in:     in.batches(n.Input.Schema().Len(), ec),
			pred:   pred,
			cancel: canceller{ctx: ec.ctx},
			op:     op,
		}}, nil
	case *ProjectNode:
		op := ec.note(depth, "%s", n.describe())
		// Build the child first so the expression form can follow it:
		// a row-form child (sort fallback, small index scan) keeps the
		// row projection operator instead of paying a batch bridge for
		// a handful of rows. Exactly one expression form is bound
		// either way, so bind-time subqueries still execute once.
		in, err := buildVec(n.Input, ec, depth+1)
		if err != nil {
			return built{}, err
		}
		if in.r != nil {
			exprs := make([]*boundExpr, len(n.Exprs))
			for i, e := range n.Exprs {
				be, err := bind(e, ec.env(n.Input.Schema()))
				if err != nil {
					return built{}, err
				}
				exprs[i] = be
			}
			return built{r: &projectIter{in: in.r, exprs: exprs, op: op}}, nil
		}
		exprs := make([]*vecExpr, len(n.Exprs))
		for i, e := range n.Exprs {
			ve, err := bindVecExpr(e, ec.env(n.Input.Schema()))
			if err != nil {
				return built{}, err
			}
			exprs[i] = ve
		}
		return built{b: &vecProject{
			in:     in.batches(n.Input.Schema().Len(), ec),
			exprs:  exprs,
			cancel: canceller{ctx: ec.ctx},
			op:     op,
		}}, nil
	case *JoinNode:
		return buildJoinVec(n, ec, depth)
	case *AggNode:
		return buildAggVec(n, ec, depth)
	case *SortNode:
		// Sorting drains its input anyway; the row sort operator is
		// reused over the (vectorized) subtree so ordering — ties
		// included — matches the row engine exactly.
		keys, descs, err := bindSortKeys(n, ec)
		if err != nil {
			return built{}, err
		}
		op := ec.note(depth, "%s", n.describe())
		in, err := buildVec(n.Input, ec, depth+1)
		if err != nil {
			return built{}, err
		}
		return built{r: &sortIter{in: in.rows(ec), keys: keys, descs: descs, cancel: canceller{ctx: ec.ctx}, op: op}}, nil
	case *LimitNode:
		// Mirror the row builder's TopK fusion rewrites exactly (same
		// notes, same shapes); see buildIterator.
		if proj, ok := n.Input.(*ProjectNode); ok && ec.opts.UseIndexes && n.N > 0 {
			if sortNode, ok := proj.Input.(*SortNode); ok {
				inner := &LimitNode{Input: sortNode, N: n.N}
				outer := *proj
				outer.Input = inner
				return buildVec(&outer, ec, depth)
			}
		}
		if sortNode, ok := n.Input.(*SortNode); ok && ec.opts.UseIndexes && n.N > 0 {
			keys, descs, err := bindSortKeys(sortNode, ec)
			if err != nil {
				return built{}, err
			}
			op := ec.note(depth, "TopK %d (%s)", n.N, sortNode.describe())
			in, err := buildVec(sortNode.Input, ec, depth+1)
			if err != nil {
				return built{}, err
			}
			return built{r: &topKIter{in: in.rows(ec), keys: keys, descs: descs, k: n.N, cancel: canceller{ctx: ec.ctx}, op: op}}, nil
		}
		op := ec.note(depth, "Limit %d", n.N)
		in, err := buildVec(n.Input, ec, depth+1)
		if err != nil {
			return built{}, err
		}
		return built{b: &vecLimit{
			in:     in.batches(n.Input.Schema().Len(), ec),
			n:      n.N,
			cancel: canceller{ctx: ec.ctx},
			op:     op,
		}}, nil
	}
	return built{}, fmt.Errorf("query: cannot execute %T", p)
}

// --- Scans ---

// vecSmallGather is the index-result size below which the vectorized
// engine serves cloned rows directly instead of gathering columns: a
// point lookup touches a handful of rows, and building per-column
// typed vectors for them costs more than it saves. Plan text and row
// contents are identical to the columnar path; under EXPLAIN ANALYZE
// the operator reports zero batches, which is accurate — no batch was
// built.
const vecSmallGather = 256

func buildScanVec(n *ScanNode, ec *execCtx, depth int) (built, error) {
	leaf, err := lowerScan(n, ec, depth)
	if err != nil {
		return built{}, err
	}
	op, a := leaf.op, leaf.access
	if leaf.path.kind != "seqscan" {
		if (a.Limit > 0 && a.Limit <= vecSmallGather) || leaf.tv.Table().CountPostings(a, vecSmallGather) <= vecSmallGather {
			rows, examined, err := leaf.tv.GatherRows(ec.ctx, a)
			if err != nil {
				return built{}, err
			}
			leaf.indexed(ec, examined)
			return built{r: &sliceIter{rows: rows, stats: ec.stats, cancel: canceller{ctx: ec.ctx}, op: op}}, nil
		}
		cb, examined, err := leaf.tv.Gather(ec.ctx, a)
		if err != nil {
			return built{}, err
		}
		leaf.indexed(ec, examined)
		return built{b: &vecScan{batches: batchesOf(cb), cancel: canceller{ctx: ec.ctx}, op: op}}, nil
	}
	// Sequential scan: gather the emitted columns plus any the residual
	// reads, filter the batches vectorized, and drop the extras on emit.
	a.Cols = n.proj
	layout := n.schema
	var residual *vecPred
	if len(leaf.path.residual) > 0 {
		pred := joinConjuncts(leaf.path.residual)
		if n.proj != nil {
			layout = &planSchema{cols: append([]planCol(nil), n.schema.cols...)}
			a.Cols = append([]int(nil), n.proj...)
			for _, ref := range exprColumns(pred) {
				if _, err := layout.resolve(ref); err == nil {
					continue
				}
				ci, err := n.base.resolve(ref)
				if err != nil {
					return built{}, err
				}
				layout.cols = append(layout.cols, n.base.cols[ci])
				a.Cols = append(a.Cols, ci)
			}
		}
		if residual, err = bindVecPred(pred, ec.env(layout)); err != nil {
			return built{}, err
		}
	}
	cb, total, err := leaf.tv.Gather(ec.ctx, a)
	if err != nil {
		return built{}, err
	}
	batches := batchesOf(cb)
	atomic.AddInt64(&ec.stats.RowsScanned, int64(total))
	op.addIn(int64(total))
	scan := &vecScan{batches: batches, residual: residual, width: n.schema.Len(), cancel: canceller{ctx: ec.ctx}, op: op}
	if ec.para > 1 && residual != nil && len(batches) > 1 {
		// Morsel-style parallelism at batch granularity: workers
		// narrow each batch's selection vector in place; batch
		// order is preserved, so output order matches serial.
		err := runChunks(ec.ctx, splitChunks(len(batches), ec.para), func(_ int, r morselRange) error {
			c := canceller{ctx: ec.ctx}
			for _, b := range batches[r.lo:r.hi] {
				if err := c.now(); err != nil {
					return err
				}
				sel, err := residual.filter(b, b.selection())
				if err != nil {
					return err
				}
				b.sel = sel
			}
			return nil
		})
		if err != nil {
			return built{}, err
		}
		scan.residual = nil
	}
	return built{b: scan}, nil
}

// vecScan streams materialized batches, applying an optional residual
// predicate by narrowing each batch's selection vector, then trimming
// the batch to its first width columns (0 keeps all): a sequential
// scan gathers the columns its residual reads after the ones it emits.
type vecScan struct {
	batches  []*batch
	pos      int
	residual *vecPred
	width    int
	cancel   canceller
	op       *OpStats
}

func (s *vecScan) nextBatch() (*batch, error) {
	for {
		if err := s.cancel.now(); err != nil {
			return nil, err
		}
		if s.pos >= len(s.batches) {
			return nil, nil
		}
		b := s.batches[s.pos]
		s.pos++
		if b == nil {
			continue
		}
		if s.residual != nil {
			sel, err := s.residual.filter(b, b.selection())
			if err != nil {
				return nil, err
			}
			b = &batch{cols: b.cols, sel: sel, n: b.n}
		}
		if b.live() == 0 {
			continue
		}
		if s.width > 0 && s.width < len(b.cols) {
			b = &batch{cols: b.cols[:s.width], sel: b.sel, n: b.n}
		}
		s.op.emit(b)
		return b, nil
	}
}

// --- Filter / Project / Limit ---

type vecFilter struct {
	in     batchIterator
	pred   *vecPred
	cancel canceller
	op     *OpStats
}

func (f *vecFilter) nextBatch() (*batch, error) {
	for {
		if err := f.cancel.now(); err != nil {
			return nil, err
		}
		b, err := f.in.nextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		f.op.addIn(int64(b.live()))
		sel, err := f.pred.filter(b, b.selection())
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			continue
		}
		out := &batch{cols: b.cols, sel: sel, n: b.n}
		f.op.emit(out)
		return out, nil
	}
}

type vecProject struct {
	in     batchIterator
	exprs  []*vecExpr
	cancel canceller
	op     *OpStats
}

func (p *vecProject) nextBatch() (*batch, error) {
	if err := p.cancel.now(); err != nil {
		return nil, err
	}
	b, err := p.in.nextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	sel := b.selection()
	cols := make([]*store.Col, len(p.exprs))
	for i, e := range p.exprs {
		c, err := e.eval(b, sel)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	out := &batch{cols: cols, sel: b.sel, n: b.n}
	p.op.emit(out)
	return out, nil
}

type vecLimit struct {
	in     batchIterator
	n      int
	seen   int
	done   bool
	cancel canceller
	op     *OpStats
}

func (l *vecLimit) nextBatch() (*batch, error) {
	for {
		if l.done || l.seen >= l.n {
			return nil, nil
		}
		if err := l.cancel.now(); err != nil {
			return nil, err
		}
		b, err := l.in.nextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			l.done = true
			return nil, nil
		}
		live := b.live()
		if live == 0 {
			continue
		}
		if l.seen+live > l.n {
			b = &batch{cols: b.cols, sel: b.selection()[:l.n-l.seen], n: b.n}
			live = l.n - l.seen
		}
		l.seen += live
		l.op.emit(b)
		return b, nil
	}
}

// --- Joins ---

// buildJoinVec mirrors buildJoin's access-path analysis. Equi-joins
// run as a vectorized hash join (HashAt-based build and probe over
// column vectors); merge-joinable shapes and non-equi joins reuse the
// row operators, which already match the row engine by construction.
func buildJoinVec(n *JoinNode, ec *execCtx, depth int) (built, error) {
	leftSchema, rightSchema := n.Left.Schema(), n.Right.Schema()
	conjs := splitConjuncts(n.Cond)
	var leftKeys, rightKeys []*boundExpr
	var leftIdx, rightIdx []int
	var residual []Expr
	for _, c := range conjs {
		if b, ok := c.(*BinaryExpr); ok && b.Op == OpEq {
			lcol, lOK := b.L.(*ColumnRef)
			rcol, rOK := b.R.(*ColumnRef)
			if lOK && rOK {
				if li, err := leftSchema.resolve(lcol); err == nil {
					if ri, err := rightSchema.resolve(rcol); err == nil {
						lk, _ := bind(lcol, ec.env(leftSchema))
						rk, _ := bind(rcol, ec.env(rightSchema))
						leftKeys = append(leftKeys, lk)
						rightKeys = append(rightKeys, rk)
						leftIdx = append(leftIdx, li)
						rightIdx = append(rightIdx, ri)
						continue
					}
				}
				if li, err := leftSchema.resolve(rcol); err == nil {
					if ri, err := rightSchema.resolve(lcol); err == nil {
						lk, _ := bind(rcol, ec.env(leftSchema))
						rk, _ := bind(lcol, ec.env(rightSchema))
						leftKeys = append(leftKeys, lk)
						rightKeys = append(rightKeys, rk)
						leftIdx = append(leftIdx, li)
						rightIdx = append(rightIdx, ri)
						continue
					}
				}
			}
		}
		if lit, ok := c.(*Literal); ok && lit.Val.K == store.KindBool && lit.Val.Bool() {
			continue // constant TRUE from pushdown
		}
		residual = append(residual, c)
	}
	// Index merge join: reuse the row implementation wholesale (it is
	// driven by ordered index scans, not batch flow).
	if ls, rs, lcol, rcol, ok := mergeJoinable(n, leftKeys, rightKeys, ec); ok {
		lt, _ := ec.cat.Table(ls.Table)
		rt, _ := ec.cat.Table(rs.Table)
		if chooseAccessPath(ls, lt, ec.cat.Tree(), true).kind == "seqscan" &&
			chooseAccessPath(rs, rt, ec.cat.Tree(), true).kind == "seqscan" {
			residualBound, err := bindJoinResidual(residual, n, ec)
			if err != nil {
				return built{}, err
			}
			op := ec.note(depth, "MergeJoin (%s = %s)%s", lcol, rcol, joinResidualNote(residual))
			li, lkIdx, err := buildOrderedScan(ls, lcol, ec, depth+1)
			if err != nil {
				return built{}, err
			}
			ri, rkIdx, err := buildOrderedScan(rs, rcol, ec, depth+1)
			if err != nil {
				return built{}, err
			}
			mj, err := newMergeJoin(li, ri, lkIdx, rkIdx, residualBound, ec, op)
			if err != nil {
				return built{}, err
			}
			return built{r: mj}, nil
		}
	}
	if len(leftKeys) > 0 {
		var residualVec *vecPred
		if len(residual) > 0 {
			vp, err := bindVecPred(joinConjuncts(residual), ec.env(n.schema))
			if err != nil {
				return built{}, err
			}
			residualVec = vp
		}
		op := ec.note(depth, "HashJoin (%d key(s))%s", len(leftKeys), joinResidualNote(residual))
		left, err := buildVec(n.Left, ec, depth+1)
		if err != nil {
			return built{}, err
		}
		right, err := buildVec(n.Right, ec, depth+1)
		if err != nil {
			return built{}, err
		}
		bi, err := newVecHashJoin(ec,
			left.batches(leftSchema.Len(), ec),
			right.batches(rightSchema.Len(), ec),
			leftIdx, rightIdx, residualVec, op)
		if err != nil {
			return built{}, err
		}
		return built{b: bi}, nil
	}
	residualBound, err := bindJoinResidual(residual, n, ec)
	if err != nil {
		return built{}, err
	}
	op := ec.note(depth, "NestedLoopJoin%s", joinResidualNote(residual))
	left, err := buildVec(n.Left, ec, depth+1)
	if err != nil {
		return built{}, err
	}
	right, err := buildVec(n.Right, ec, depth+1)
	if err != nil {
		return built{}, err
	}
	nl, err := newNestedLoopJoin(left.rows(ec), right.rows(ec), residualBound, ec, op)
	if err != nil {
		return built{}, err
	}
	return built{r: nl}, nil
}

// bindJoinResidual binds the row form of a join's residual conjuncts.
func bindJoinResidual(residual []Expr, n *JoinNode, ec *execCtx) (*boundExpr, error) {
	if len(residual) == 0 {
		return nil, nil
	}
	return bind(joinConjuncts(residual), ec.env(n.schema))
}

// rowRef addresses one build-side row inside its batch.
type rowRef struct {
	b *batch
	i int
}

// vecHashJoin builds a hash table over the right input's batches and
// probes with the left, emitting one output batch per probe batch.
// Hash values come from Col.HashAt, which reproduces Value.Hash bit
// for bit, so build/probe matching is identical to the row engine's
// (including its treatment of NULL keys: they never join).
type vecHashJoin struct {
	left     batchIterator
	leftIdx  []int
	table    map[uint64][]rowRef
	residual *vecPred
	stats    *ExecStats
	cancel   canceller
	op       *OpStats
}

func newVecHashJoin(ec *execCtx, left, right batchIterator, leftIdx, rightIdx []int, residual *vecPred, op *OpStats) (batchIterator, error) {
	rbs, err := drainBatches(ec.ctx, right)
	if err != nil {
		return nil, err
	}
	table := make(map[uint64][]rowRef)
	cancel := canceller{ctx: ec.ctx}
	for _, rb := range rbs {
		if err := cancel.now(); err != nil {
			return nil, err
		}
		for _, i := range rb.selection() {
			if h, ok := hashBatchKeys(rb, rightIdx, i); ok {
				table[h] = append(table[h], rowRef{rb, i})
			}
		}
	}
	j := &vecHashJoin{
		left:     left,
		leftIdx:  leftIdx,
		table:    table,
		residual: residual,
		stats:    ec.stats,
		cancel:   canceller{ctx: ec.ctx},
		op:       op,
	}
	if ec.para > 1 {
		// Parallel probe: drain the probe side and process contiguous
		// chunks of batches on the pool. Per-batch outputs keep their
		// slots, so concatenation preserves the serial output order.
		lbs, err := drainBatches(ec.ctx, left)
		if err != nil {
			return nil, err
		}
		outs := make([]*batch, len(lbs))
		err = runChunks(ec.ctx, splitChunks(len(lbs), ec.para), func(_ int, r morselRange) error {
			c := canceller{ctx: ec.ctx}
			for k := r.lo; k < r.hi; k++ {
				if err := c.now(); err != nil {
					return err
				}
				out, err := j.probe(lbs[k])
				if err != nil {
					return err
				}
				outs[k] = out
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		joined := int64(0)
		for _, o := range outs {
			if o != nil {
				joined += int64(o.live())
			}
		}
		atomic.AddInt64(&ec.stats.RowsJoined, joined)
		return &vecScan{batches: outs, cancel: canceller{ctx: ec.ctx}, op: op}, nil
	}
	return j, nil
}

// hashBatchKeys combines the key columns' hashes for row i exactly as
// hashKeys does for a row; ok is false when any key cell is NULL.
func hashBatchKeys(b *batch, idx []int, i int) (uint64, bool) {
	var h uint64 = 14695981039346656037
	for _, c := range idx {
		col := b.cols[c]
		if col.IsNull(i) {
			return 0, false
		}
		h = h*1099511628211 ^ col.HashAt(i)
	}
	return h, true
}

func (j *vecHashJoin) nextBatch() (*batch, error) {
	for {
		if err := j.cancel.now(); err != nil {
			return nil, err
		}
		lb, err := j.left.nextBatch()
		if err != nil || lb == nil {
			return nil, err
		}
		out, err := j.probe(lb)
		if err != nil {
			return nil, err
		}
		if out == nil || out.live() == 0 {
			continue
		}
		atomic.AddInt64(&j.stats.RowsJoined, int64(out.live()))
		j.op.emit(out)
		return out, nil
	}
}

// probe joins one probe batch against the build table, producing a
// fresh output batch (left columns then right columns). Stateless, so
// parallel workers can share the join. Output column kinds follow the
// input columns' runtime kinds, which are stable across batches of
// one operator, so typed appends never mismatch.
func (j *vecHashJoin) probe(lb *batch) (*batch, error) {
	lw := len(lb.cols)
	var cols []*store.Col
	n := 0
	for _, li := range lb.selection() {
		h, ok := hashBatchKeys(lb, j.leftIdx, li)
		if !ok {
			continue
		}
		for _, rr := range j.table[h] {
			if cols == nil {
				cols = make([]*store.Col, lw+len(rr.b.cols))
				for c, lc := range lb.cols {
					cols[c] = store.NewCol(lc.Kind, vecBatchSize)
				}
				for c, rc := range rr.b.cols {
					cols[lw+c] = store.NewCol(rc.Kind, vecBatchSize)
				}
			}
			for c := range lb.cols {
				cols[c].AppendFrom(lb.cols[c], li)
			}
			for c := range rr.b.cols {
				cols[lw+c].AppendFrom(rr.b.cols[c], rr.i)
			}
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := &batch{cols: cols, n: n}
	if j.residual != nil {
		sel, err := j.residual.filter(out, out.selection())
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			return nil, nil
		}
		out.sel = sel
	}
	return out, nil
}

// --- Aggregation ---

// buildAggVec aggregates over batches when every group and argument
// expression vectorizes; otherwise it reuses the row aggregation
// operator over the bridged input.
func buildAggVec(n *AggNode, ec *execCtx, depth int) (built, error) {
	if it, ok := tryOverlayRead(n, ec, depth); ok {
		return built{r: it}, nil
	}
	env := ec.env(n.Input.Schema())
	allSafe := true
	for _, g := range n.GroupBy {
		if _, ok := vecSafe(g, env.schema); !ok {
			allSafe = false
			break
		}
	}
	if allSafe {
		for _, a := range n.Aggs {
			if a.Star {
				continue
			}
			if _, ok := vecSafe(a.Arg, env.schema); !ok {
				allSafe = false
				break
			}
		}
	}
	if !allSafe {
		groups := make([]*boundExpr, len(n.GroupBy))
		for i, g := range n.GroupBy {
			be, err := bind(g, env)
			if err != nil {
				return built{}, err
			}
			groups[i] = be
		}
		args := make([]*boundExpr, len(n.Aggs))
		for i, a := range n.Aggs {
			if a.Star {
				continue
			}
			be, err := bind(a.Arg, env)
			if err != nil {
				return built{}, err
			}
			args[i] = be
		}
		op := ec.note(depth, "%s", n.describe())
		in, err := buildVec(n.Input, ec, depth+1)
		if err != nil {
			return built{}, err
		}
		return built{r: &aggIter{in: in.rows(ec), groups: groups, aggs: n.Aggs, args: args, ec: ec, op: op}}, nil
	}
	groups := make([]*vecExpr, len(n.GroupBy))
	for i, g := range n.GroupBy {
		ve, err := bindVec(g, env)
		if err != nil {
			return built{}, err
		}
		groups[i] = ve
	}
	args := make([]*vecExpr, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Star {
			continue
		}
		ve, err := bindVec(a.Arg, env)
		if err != nil {
			return built{}, err
		}
		args[i] = ve
	}
	op := ec.note(depth, "%s", n.describe())
	in, err := buildVec(n.Input, ec, depth+1)
	if err != nil {
		return built{}, err
	}
	return built{r: &vecAggIter{
		in:     in.batches(n.Input.Schema().Len(), ec),
		groups: groups,
		aggs:   n.Aggs,
		args:   args,
		ec:     ec,
		op:     op,
	}}, nil
}

// vecAggIter is hash aggregation with vectorized key/argument
// evaluation: expressions run per batch, accumulation reuses aggTable
// (so grouping, DISTINCT, and merge semantics are shared with the row
// engine). Output is row-at-a-time — aggregates emit one row per
// group, far below batch granularity.
type vecAggIter struct {
	in     batchIterator
	groups []*vecExpr
	aggs   []*AggExpr
	args   []*vecExpr // nil entries for star aggregates
	ec     *execCtx
	op     *OpStats

	out []store.Row
	pos int
	run bool
}

func (a *vecAggIter) Next() (store.Row, bool, error) {
	if !a.run {
		if err := a.drain(); err != nil {
			return nil, false, err
		}
		a.run = true
	}
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	a.op.addOut(1)
	return r, true, nil
}

// accumBatch evaluates group and argument expressions over one batch
// and folds every live row into the table.
func (a *vecAggIter) accumBatch(t *aggTable, b *batch) error {
	sel := b.selection()
	gcols := make([]*store.Col, len(a.groups))
	for i, g := range a.groups {
		c, err := g.eval(b, sel)
		if err != nil {
			return err
		}
		gcols[i] = c
	}
	acols := make([]*store.Col, len(a.args))
	for i, ae := range a.args {
		if ae == nil {
			continue
		}
		c, err := ae.eval(b, sel)
		if err != nil {
			return err
		}
		acols[i] = c
	}
	argv := make([]store.Value, len(a.aggs))
	for _, i := range sel {
		keys := make([]store.Value, len(gcols))
		for g, c := range gcols {
			keys[g] = c.Value(i)
		}
		for k, c := range acols {
			if c != nil {
				argv[k] = c.Value(i)
			}
		}
		t.addValues(keys, argv)
	}
	return nil
}

func (a *vecAggIter) drain() error {
	var final *aggTable
	if a.ec.para > 1 {
		t, err := a.drainParallel()
		if err != nil {
			return err
		}
		final = t
	} else {
		final = newAggTable(nil, a.aggs, nil)
		cancel := canceller{ctx: a.ec.ctx}
		for {
			if err := cancel.now(); err != nil {
				return err
			}
			b, err := a.in.nextBatch()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			a.op.addIn(int64(b.live()))
			if err := a.accumBatch(final, b); err != nil {
				return err
			}
		}
	}
	// A global aggregate over an empty input still yields one row.
	if len(a.groups) == 0 && len(final.order) == 0 {
		final.table[""] = &groupEntry{states: make([]aggState, len(a.aggs))}
		final.order = append(final.order, "")
	}
	a.out = final.rows()
	return nil
}

// drainParallel materializes the input batches and aggregates
// contiguous chunks into per-worker partial tables, merged in chunk
// order — the same order-reproducing scheme the row engine uses.
func (a *vecAggIter) drainParallel() (*aggTable, error) {
	bs, err := drainBatches(a.ec.ctx, a.in)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range bs {
		total += b.live()
	}
	a.op.addIn(int64(total))
	if total < 2*morselSize {
		// Partial tables would cost more than they save.
		t := newAggTable(nil, a.aggs, nil)
		for _, b := range bs {
			if err := a.accumBatch(t, b); err != nil {
				return nil, err
			}
		}
		return t, nil
	}
	chunks := splitChunks(len(bs), a.ec.para)
	partials := make([]*aggTable, len(chunks))
	err = runChunks(a.ec.ctx, chunks, func(w int, r morselRange) error {
		c := canceller{ctx: a.ec.ctx}
		part := newAggTable(nil, a.aggs, nil)
		for _, b := range bs[r.lo:r.hi] {
			if err := c.now(); err != nil {
				return err
			}
			if err := a.accumBatch(part, b); err != nil {
				return err
			}
		}
		partials[w] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	final := partials[0]
	for _, p := range partials[1:] {
		final.merge(p)
	}
	return final, nil
}
