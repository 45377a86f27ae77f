package query

import (
	"fmt"
	"strings"
	"sync/atomic"

	"drugtree/internal/store"
)

// Physical plan construction. build is the one physical builder: it
// lowers each logical node to a batch operator (batch.go), so batches
// are the only unit operators exchange. Expressions that can fail at
// evaluation time keep their row-major evaluation inside the compiled
// expression (vec_eval.go); no operator branches on it.

// build lowers a logical plan node to its operator tree.
func build(p LogicalPlan, ec *execCtx, depth int) (batchIterator, error) {
	switch n := p.(type) {
	case *ScanNode:
		return buildScan(n, ec, depth)
	case *FilterNode:
		pred, err := bindVecPred(n.Pred, ec.env(n.Input.Schema()))
		if err != nil {
			return nil, err
		}
		op := ec.note(depth, "Filter %s", n.Pred)
		in, err := build(n.Input, ec, depth+1)
		if err != nil {
			return nil, err
		}
		return &vecFilter{in: in, pred: pred, cancel: canceller{ctx: ec.ctx}, op: op}, nil
	case *ProjectNode:
		op := ec.note(depth, "%s", n.describe())
		exprs, err := bindVecExprs(n.Exprs, ec.env(n.Input.Schema()))
		if err != nil {
			return nil, err
		}
		in, err := build(n.Input, ec, depth+1)
		if err != nil {
			return nil, err
		}
		return &vecProject{in: in, exprs: exprs, cancel: canceller{ctx: ec.ctx}, op: op}, nil
	case *JoinNode:
		return buildJoin(n, ec, depth)
	case *AggNode:
		return buildAgg(n, ec, depth)
	case *SortNode:
		keys, err := bindSortKeys(n, ec)
		if err != nil {
			return nil, err
		}
		op := ec.note(depth, "%s", n.describe())
		in, err := build(n.Input, ec, depth+1)
		if err != nil {
			return nil, err
		}
		return &vecSort{in: in, keys: keys, cancel: canceller{ctx: ec.ctx}, op: op}, nil
	case *LimitNode:
		// ORDER BY + LIMIT fuses into a bounded-heap top-k when the
		// optimizer is allowed to choose physical operators. The sort
		// may sit directly below the limit, or below a projection
		// (the hidden-sort-column shape): Limit(Project(Sort)) runs
		// as Project(TopK) — projection preserves order and count.
		if proj, ok := n.Input.(*ProjectNode); ok && ec.opts.UseIndexes && n.N > 0 {
			if sortNode, ok := proj.Input.(*SortNode); ok {
				inner := &LimitNode{Input: sortNode, N: n.N}
				outer := *proj
				outer.Input = inner
				return build(&outer, ec, depth)
			}
		}
		if sortNode, ok := n.Input.(*SortNode); ok && ec.opts.UseIndexes && n.N > 0 {
			keys, err := bindSortKeys(sortNode, ec)
			if err != nil {
				return nil, err
			}
			op := ec.note(depth, "TopK %d (%s)", n.N, sortNode.describe())
			in, err := build(sortNode.Input, ec, depth+1)
			if err != nil {
				return nil, err
			}
			return &vecTopK{in: in, keys: keys, k: n.N, cancel: canceller{ctx: ec.ctx}, op: op}, nil
		}
		op := ec.note(depth, "Limit %d", n.N)
		in, err := build(n.Input, ec, depth+1)
		if err != nil {
			return nil, err
		}
		return &vecLimit{in: in, n: n.N, cancel: canceller{ctx: ec.ctx}, op: op}, nil
	}
	return nil, fmt.Errorf("query: cannot execute %T", p)
}

// --- Scans ---

func buildScan(n *ScanNode, ec *execCtx, depth int) (batchIterator, error) {
	leaf, err := lowerScan(n, ec, depth)
	if err != nil {
		return nil, err
	}
	op, a := leaf.op, leaf.access
	if leaf.path.kind != "seqscan" {
		// A point lookup is a short batch like any other.
		cb, examined, err := leaf.tv.Gather(ec.ctx, a)
		if err != nil {
			return nil, err
		}
		leaf.indexed(ec, examined)
		return &vecScan{batches: batchesOf(cb), cancel: canceller{ctx: ec.ctx}, op: op}, nil
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
					return nil, err
				}
				layout.cols = append(layout.cols, n.base.cols[ci])
				a.Cols = append(a.Cols, ci)
			}
		}
		if residual, err = bindVecPred(pred, ec.env(layout)); err != nil {
			return nil, err
		}
	}
	cb, total, err := leaf.tv.Gather(ec.ctx, a)
	if err != nil {
		return nil, err
	}
	batches := batchesOf(cb)
	atomic.AddInt64(&ec.stats.RowsScanned, int64(total))
	op.addIn(int64(total))
	scan := &vecScan{batches: batches, residual: residual, width: n.schema.Len(), cancel: canceller{ctx: ec.ctx}, op: op}
	if ec.para > 1 && residual != nil && len(batches) > 1 {
		// One contiguous chunk of batches per worker: each narrows its
		// batches' selection vectors in place; batch order is
		// preserved, so output order matches serial.
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
			return nil, err
		}
		scan.residual = nil
	}
	return scan, nil
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

// buildJoin picks the hash join for equi-conditions and the nested loop
// otherwise; conjuncts that are not column = column across the two
// sides run as a residual filter over the joined batch.
func buildJoin(n *JoinNode, ec *execCtx, depth int) (batchIterator, error) {
	leftSchema, rightSchema := n.Left.Schema(), n.Right.Schema()
	var leftIdx, rightIdx []int
	var residual []Expr
	for _, c := range splitConjuncts(n.Cond) {
		if b, ok := c.(*BinaryExpr); ok && b.Op == OpEq {
			lcol, lOK := b.L.(*ColumnRef)
			rcol, rOK := b.R.(*ColumnRef)
			if lOK && rOK {
				// Which side does each belong to?
				li, lerr := leftSchema.resolve(lcol)
				ri, rerr := rightSchema.resolve(rcol)
				if lerr != nil || rerr != nil {
					li, lerr = leftSchema.resolve(rcol)
					ri, rerr = rightSchema.resolve(lcol)
				}
				if lerr == nil && rerr == nil {
					leftIdx = append(leftIdx, li)
					rightIdx = append(rightIdx, ri)
					continue
				}
			}
		}
		if lit, ok := c.(*Literal); ok && lit.Val.K == store.KindBool && lit.Val.Bool() {
			continue // constant TRUE from pushdown
		}
		residual = append(residual, c)
	}
	var residualPred *vecPred
	if len(residual) > 0 {
		vp, err := bindVecPred(joinConjuncts(residual), ec.env(n.schema))
		if err != nil {
			return nil, err
		}
		residualPred = vp
	}
	var op *OpStats
	if len(leftIdx) > 0 {
		op = ec.note(depth, "HashJoin (%d key(s))%s", len(leftIdx), joinResidualNote(residual))
	} else {
		op = ec.note(depth, "NestedLoopJoin%s", joinResidualNote(residual))
	}
	left, err := build(n.Left, ec, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := build(n.Right, ec, depth+1)
	if err != nil {
		return nil, err
	}
	if len(leftIdx) > 0 {
		return newVecHashJoin(ec, left, right, leftIdx, rightIdx, residualPred, op)
	}
	return newVecNestedLoop(ec, left, right, residualPred, op)
}

func joinResidualNote(res []Expr) string {
	if len(res) == 0 {
		return ""
	}
	parts := make([]string, len(res))
	for i, c := range res {
		parts[i] = c.String()
	}
	return " residual: " + strings.Join(parts, " AND ")
}

// pairs accumulates join output — a left row's cells, then a right
// row's — into one batch. Output column kinds follow the input columns'
// runtime kinds, which are stable across batches of one operator, so
// typed appends never mismatch.
type pairs struct {
	cols []*store.Col
	n    int
}

func newPairs(l, r *batch) *pairs {
	p := &pairs{cols: make([]*store.Col, 0, len(l.cols)+len(r.cols))}
	for _, c := range l.cols {
		p.cols = append(p.cols, store.NewCol(c.Kind, vecBatchSize))
	}
	for _, c := range r.cols {
		p.cols = append(p.cols, store.NewCol(c.Kind, vecBatchSize))
	}
	return p
}

func (p *pairs) add(l *batch, li int, r rowRef) {
	for c, lc := range l.cols {
		p.cols[c].AppendFrom(lc, li)
	}
	for c, rc := range r.b.cols {
		p.cols[len(l.cols)+c].AppendFrom(rc, r.i)
	}
	p.n++
}

// batch returns the accumulated pairs the residual accepts, or nil
// when none survive.
func (p *pairs) batch(residual *vecPred) (*batch, error) {
	if p == nil || p.n == 0 {
		return nil, nil
	}
	out := &batch{cols: p.cols, n: p.n}
	if residual != nil {
		sel, err := residual.filter(out, out.selection())
		if err != nil || len(sel) == 0 {
			return nil, err
		}
		out.sel = sel
	}
	return out, nil
}

// vecHashJoin builds a hash table over the right input's rows and
// probes with the left, emitting at most vecBatchSize pairs per output
// batch. A bucket is a list of candidates: key cells are compared on
// every hash hit (distinct keys can share a hash — Value.Hash widens
// integers to float64), and NULL keys never join.
type vecHashJoin struct {
	left              batchIterator
	leftIdx, rightIdx []int
	table             map[uint64][]rowRef
	residual          *vecPred
	stats             *ExecStats
	cancel            canceller
	op                *OpStats
	cur               probeCursor
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
		rightIdx: rightIdx,
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
		outs := make([][]*batch, len(lbs))
		err = runChunks(ec.ctx, splitChunks(len(lbs), ec.para), func(_ int, r morselRange) error {
			c := canceller{ctx: ec.ctx}
			for k := r.lo; k < r.hi; k++ {
				for cur := newProbeCursor(lbs[k]); !cur.done(); {
					if err := c.now(); err != nil {
						return err
					}
					out, err := j.probe(&cur)
					if err != nil {
						return err
					}
					if out != nil {
						outs[k] = append(outs[k], out)
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var flat []*batch
		joined := int64(0)
		for _, o := range outs {
			for _, b := range o {
				joined += int64(b.live())
			}
			flat = append(flat, o...)
		}
		atomic.AddInt64(&ec.stats.RowsJoined, joined)
		return &vecScan{batches: flat, cancel: canceller{ctx: ec.ctx}, op: op}, nil
	}
	return j, nil
}

// hashBatchKeys combines the key columns' hashes for row i; ok is false
// when any key cell is NULL.
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

// probeCursor is a probe's position inside one probe batch: the next
// live row to hash, and what is left of the current row's bucket.
type probeCursor struct {
	lb     *batch
	sel    []int
	pos    int // next position in sel
	li     int // row the bucket belongs to
	bucket []rowRef
}

func newProbeCursor(lb *batch) probeCursor { return probeCursor{lb: lb, sel: lb.selection()} }

func (c *probeCursor) done() bool { return c.pos >= len(c.sel) && len(c.bucket) == 0 }

func (j *vecHashJoin) nextBatch() (*batch, error) {
	for {
		if err := j.cancel.now(); err != nil {
			return nil, err
		}
		if j.cur.done() {
			lb, err := j.left.nextBatch()
			if err != nil || lb == nil {
				return nil, err
			}
			j.cur = newProbeCursor(lb)
		}
		out, err := j.probe(&j.cur)
		if err != nil {
			return nil, err
		}
		if out == nil {
			continue
		}
		atomic.AddInt64(&j.stats.RowsJoined, int64(out.live()))
		j.op.emit(out)
		return out, nil
	}
}

// probe advances cur by up to vecBatchSize matching pairs and returns
// those the residual accepts as a fresh batch (nil when none do); the
// caller polls its context and calls again until cur is done. It reads
// the join and writes only cur, so parallel workers share the join.
func (j *vecHashJoin) probe(cur *probeCursor) (*batch, error) {
	var out *pairs
	for !cur.done() && (out == nil || out.n < vecBatchSize) {
		if len(cur.bucket) == 0 {
			cur.li = cur.sel[cur.pos]
			cur.pos++
			if h, ok := hashBatchKeys(cur.lb, j.leftIdx, cur.li); ok {
				cur.bucket = j.table[h]
			}
			continue
		}
		rr := cur.bucket[0]
		cur.bucket = cur.bucket[1:]
		if !j.keysEqual(cur.lb, cur.li, rr) {
			continue
		}
		if out == nil {
			out = newPairs(cur.lb, rr.b)
		}
		out.add(cur.lb, cur.li, rr)
	}
	return out.batch(j.residual)
}

// keysEqual compares the probe row's key cells with a bucket entry's.
func (j *vecHashJoin) keysEqual(lb *batch, li int, rr rowRef) bool {
	for k, lc := range j.leftIdx {
		if !store.Equal(lb.cols[lc].Value(li), rr.b.cols[j.rightIdx[k]].Value(rr.i)) {
			return false
		}
	}
	return true
}

// vecNestedLoop joins every left row with every row of the drained
// right side, at most vecBatchSize candidate pairs per output batch,
// keeping those the residual accepts.
type vecNestedLoop struct {
	left     batchIterator
	right    []rowRef
	residual *vecPred
	stats    *ExecStats
	cancel   canceller
	op       *OpStats

	lb   *batch
	lsel []int
	lpos int // current left row (position in lsel)
	rpos int // next right row for it
}

func newVecNestedLoop(ec *execCtx, left, right batchIterator, residual *vecPred, op *OpStats) (batchIterator, error) {
	rbs, err := drainBatches(ec.ctx, right)
	if err != nil {
		return nil, err
	}
	var refs []rowRef
	for _, rb := range rbs {
		for _, i := range rb.selection() {
			refs = append(refs, rowRef{rb, i})
		}
	}
	return &vecNestedLoop{left: left, right: refs, residual: residual, stats: ec.stats, cancel: canceller{ctx: ec.ctx}, op: op}, nil
}

func (j *vecNestedLoop) nextBatch() (*batch, error) {
	for {
		if err := j.cancel.now(); err != nil {
			return nil, err
		}
		if j.lpos >= len(j.lsel) || len(j.right) == 0 {
			lb, err := j.left.nextBatch()
			if err != nil || lb == nil {
				return nil, err
			}
			j.op.addIn(int64(lb.live()))
			j.lb, j.lsel, j.lpos, j.rpos = lb, lb.selection(), 0, 0
			continue
		}
		cand := newPairs(j.lb, j.right[0].b)
		for cand.n < vecBatchSize && j.lpos < len(j.lsel) {
			if j.rpos == len(j.right) {
				j.lpos, j.rpos = j.lpos+1, 0
				continue
			}
			cand.add(j.lb, j.lsel[j.lpos], j.right[j.rpos])
			j.rpos++
		}
		out, err := cand.batch(j.residual)
		if err != nil {
			return nil, err
		}
		if out == nil {
			continue
		}
		atomic.AddInt64(&j.stats.RowsJoined, int64(out.live()))
		j.op.emit(out)
		return out, nil
	}
}

// --- Aggregation ---

// buildAgg lowers an AggNode to hash aggregation over batches, or to an
// overlay read when the shape allows one.
func buildAgg(n *AggNode, ec *execCtx, depth int) (batchIterator, error) {
	if it, ok := tryOverlayRead(n, ec, depth); ok {
		return it, nil
	}
	env := ec.env(n.Input.Schema())
	groups, err := bindVecExprs(n.GroupBy, env)
	if err != nil {
		return nil, err
	}
	args := make([]*vecExpr, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Star {
			continue
		}
		if args[i], err = bindVecExpr(a.Arg, env); err != nil {
			return nil, err
		}
	}
	op := ec.note(depth, "%s", n.describe())
	in, err := build(n.Input, ec, depth+1)
	if err != nil {
		return nil, err
	}
	return &vecAgg{in: in, groups: groups, aggs: n.Aggs, args: args, ec: ec, op: op}, nil
}

// vecAgg is hash aggregation: group and argument expressions are
// evaluated per batch, each live row is folded into an aggTable, and —
// with Parallelism > 1 — per-worker partial tables over contiguous
// input chunks are merged in chunk order, which reproduces the serial
// first-seen group order exactly. It drains its input on the first
// call, then streams one row per group (group keys, then aggregates).
type vecAgg struct {
	in     batchIterator
	groups []*vecExpr
	aggs   []*AggExpr
	args   []*vecExpr // nil entries for star aggregates
	ec     *execCtx
	op     *OpStats
	out    *vecScan
}

func (a *vecAgg) nextBatch() (*batch, error) {
	cancel := canceller{ctx: a.ec.ctx}
	if err := cancel.now(); err != nil {
		return nil, err
	}
	if a.out == nil {
		final, err := a.drain()
		if err != nil {
			return nil, err
		}
		// A global aggregate over an empty input still yields one row.
		if len(a.groups) == 0 && len(final.order) == 0 {
			final.table[""] = &groupEntry{states: make([]aggState, len(a.aggs))}
			final.order = append(final.order, "")
		}
		a.out = &vecScan{batches: batchesOf(final.output(len(a.groups))), cancel: cancel, op: a.op}
	}
	return a.out.nextBatch()
}

// accumBatch evaluates group and argument expressions over one batch
// and folds every live row into the table.
func (a *vecAgg) accumBatch(t *aggTable, b *batch) error {
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

// drain folds the whole input into one table: batch by batch as it
// streams in, or — with Parallelism > 1 and enough input for partial
// tables to pay — materialized and split over the worker pool.
func (a *vecAgg) drain() (*aggTable, error) {
	final := newAggTable(a.aggs)
	if a.ec.para == 1 {
		cancel := canceller{ctx: a.ec.ctx}
		for {
			if err := cancel.now(); err != nil {
				return nil, err
			}
			b, err := a.in.nextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return final, nil
			}
			a.op.addIn(int64(b.live()))
			if err := a.accumBatch(final, b); err != nil {
				return nil, err
			}
		}
	}
	bs, err := drainBatches(a.ec.ctx, a.in)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range bs {
		total += b.live()
	}
	a.op.addIn(int64(total))
	chunks := splitChunks(len(bs), a.ec.para)
	if total < 2*vecBatchSize {
		chunks = splitChunks(len(bs), 1)
	}
	partials := make([]*aggTable, len(chunks))
	err = runChunks(a.ec.ctx, chunks, func(w int, r morselRange) error {
		c := canceller{ctx: a.ec.ctx}
		partials[w] = newAggTable(a.aggs)
		for _, b := range bs[r.lo:r.hi] {
			if err := c.now(); err != nil {
				return err
			}
			if err := a.accumBatch(partials[w], b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range partials {
		final.merge(p)
	}
	return final, nil
}
