package query

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"drugtree/internal/store"
)

// Physical plan construction. build is the one physical builder: it
// lowers each logical node to a batch operator (batch.go), so batches
// are the only unit operators exchange. An expression that fails at
// evaluation time reports the error of its first failing row in row
// order (vec_eval.go); no operator branches on it.

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
		exprs, err := bindVecs(n.Exprs, ec.env(n.Input.Schema()))
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
	tv, err := ec.view(n.Table)
	if err != nil {
		return nil, err
	}
	scan, _, err := lowerScan(n, tv, chooseAccessPath(n, tv.Table(), ec.cat.Tree(), ec.opts.UseIndexes), ec, depth)
	if err != nil {
		return nil, err
	}
	return scan, nil
}

// lowerScan notes a scan's plan line and returns the operator reading
// the table along path, which reads nothing before its first call (so a
// plain EXPLAIN executes nothing). An index path is one store access —
// index column and keys or range, direction and row cap, projected
// columns, and the residual as an Accept check the store runs over each
// chunk of postings, so rejected rows are never materialized and an
// ordered walk can stop at its k-th qualifying row; a point lookup is a
// short batch like any other. That access is returned too: a keyed probe's join
// gives it its keys before the scan's first call. A sequential scan
// gathers the emitted columns plus any the residual reads, filters the
// batches vectorized and drops the extras on emit.
func lowerScan(n *ScanNode, tv *store.TableView, path accessPath, ec *execCtx, depth int) (*vecScan, *store.Access, error) {
	if path.kind == "seqscan" {
		scan, err := lowerSeqScan(n, tv, path, ec, depth)
		return scan, nil, err
	}
	a := path.access(n.proj)
	if len(path.residual) > 0 {
		var err error
		if a.Accept, err = indexResidual(joinConjuncts(path.residual), n.base, ec); err != nil {
			return nil, nil, err
		}
	}
	op := ec.note(depth, "%s", path.describe(n))
	scan := &vecScan{read: &scanRead{tv: tv, a: a, ec: ec, indexed: true}, width: n.schema.Len(), cancel: canceller{ctx: ec.ctx}, op: op}
	return scan, &scan.read.a, nil
}

// indexResidual compiles an index path's residual to the store's
// Accept. Each chunk of candidates is filled — the columns the residual
// reads only — into buffers the read reuses, and the batch predicate
// narrows it to the rows it accepts, its output columns drawn from a
// pool the read reuses too: a read allocates nothing per chunk once its
// first chunk has sized the buffers.
func indexResidual(pred Expr, base *planSchema, ec *execCtx) (func(*store.Selection) (int, error), error) {
	r := &residualRead{b: batch{cols: make([]*store.Col, base.Len())}}
	r.b.pool = &r.pool
	for _, ref := range exprColumns(pred) {
		ci, err := base.resolve(ref)
		if err != nil {
			return nil, err
		}
		if r.b.cols[ci] == nil {
			r.b.cols[ci], r.cols = &store.Col{}, append(r.cols, ci)
		}
	}
	var err error
	if r.pred, err = bindVecPred(pred, ec.env(base)); err != nil {
		return nil, err
	}
	return r.accept, nil
}

// residualRead is one index read's residual: the predicate, the table
// columns it reads, and the batch and pool its chunks reuse.
type residualRead struct {
	pred vecPred
	cols []int
	b    batch
	pool colPool
}

// accept narrows a chunk of candidates to the rows the predicate
// accepts, in place.
func (r *residualRead) accept(chunk *store.Selection) (int, error) {
	r.b.n = len(chunk.Slots)
	r.pool.reset()
	for _, c := range r.cols {
		chunk.FillCol(r.b.cols[c], c, 0, r.b.n)
	}
	pass, err := r.pred(&r.b, identity(r.b.n))
	if err != nil {
		if re := (*rowError)(nil); errors.As(err, &re) {
			return re.row, re.err
		}
		return r.b.n - 1, err
	}
	for j, i := range pass {
		chunk.Slots[j] = chunk.Slots[i]
	}
	chunk.Slots = chunk.Slots[:len(pass)]
	return 0, nil
}

func lowerSeqScan(n *ScanNode, tv *store.TableView, path accessPath, ec *execCtx, depth int) (*vecScan, error) {
	a := store.Access{Cols: n.proj}
	layout := n.schema
	var residual vecPred
	var filterCols []int
	if len(path.residual) > 0 {
		pred := joinConjuncts(path.residual)
		if n.proj != nil {
			layout = &planSchema{cols: append([]planCol(nil), n.schema.cols...)}
			a.Cols = append([]int(nil), n.proj...)
			for _, ref := range exprColumns(pred) {
				if _, ok := layout.lookup(ref); ok {
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
		var err error
		if residual, err = bindVecPred(pred, ec.env(layout)); err != nil {
			return nil, err
		}
		for _, ref := range exprColumns(pred) {
			if i, ok := layout.lookup(ref); ok && !slices.Contains(filterCols, i) {
				filterCols = append(filterCols, i)
			}
		}
	}
	op := ec.note(depth, "%s", path.describe(n))
	return &vecScan{read: &scanRead{tv: tv, a: a, ec: ec, filterCols: filterCols}, residual: residual, width: n.schema.Len(),
		cancel: canceller{ctx: ec.ctx}, op: op}, nil
}

// scanRead is the table read behind a scan operator: one store access on
// the statement's view of the table. A scan runs it once, either
// gathering every row it emits (gather) or — when a fold consumes the
// scan over a pinned view — selecting them and filling a morsel at a
// time (foldSelected).
type scanRead struct {
	tv *store.TableView
	a  store.Access
	ec *execCtx
	// indexed: the access walks an index (its examined rows count as
	// RowsIndexed), else it is a sequential pass (RowsScanned).
	indexed bool
	// filterCols lists the output columns a sequential scan's residual
	// reads.
	filterCols []int
}

// count records the rows the read examined, on the statement's counters
// and as op's input.
func (r *scanRead) count(examined int, op *OpStats) {
	if r.indexed {
		atomic.AddInt64(&r.ec.stats.RowsIndexed, int64(examined))
	} else {
		atomic.AddInt64(&r.ec.stats.RowsScanned, int64(examined))
	}
	op.addIn(int64(examined))
}

// vecScan streams materialized batches — its read's, gathered on the
// first call, when it has one — applying an optional residual predicate
// by narrowing each batch's selection vector, then trimming the batch to
// its first width columns (0 keeps all): a sequential scan gathers the
// columns its residual reads after the ones it emits.
type vecScan struct {
	read     *scanRead
	batches  []*batch
	pos      int
	residual vecPred
	width    int
	cancel   canceller
	op       *OpStats
}

func (s *vecScan) nextBatch() (*batch, error) {
	for {
		if err := s.cancel.now(); err != nil {
			return nil, err
		}
		if s.read != nil {
			bs, err := s.gather()
			if err != nil {
				return nil, err
			}
			s.batches = bs
		}
		if s.pos >= len(s.batches) {
			return nil, nil
		}
		b := s.batches[s.pos]
		s.pos++
		if s.residual != nil {
			sel, err := s.residual(b, b.selection())
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

// gather runs the scan's read, copying every row it emits out of
// storage into vecBatchSize batches, and — with Parallelism > 1 — runs
// a sequential scan's residual over them on the pool: one contiguous
// chunk of batches per worker, each narrowing its batches' selection
// vectors in place. Batch order is preserved, so output order matches
// serial.
func (s *vecScan) gather() ([]*batch, error) {
	r := s.read
	s.read = nil
	cb, examined, err := r.tv.Gather(r.ec.ctx, r.a)
	if err != nil {
		return nil, err
	}
	r.count(examined, s.op)
	batches := batchesOf(cb)
	if r.ec.para == 1 || s.residual == nil || len(batches) < 2 {
		return batches, nil
	}
	err = runChunks(r.ec.ctx, splitChunks(len(batches), r.ec.para), func(_ int, c morselRange) error {
		poll := canceller{ctx: r.ec.ctx}
		for _, b := range batches[c.lo:c.hi] {
			if err := poll.now(); err != nil {
				return err
			}
			sel, err := s.residual(b, b.selection())
			if err != nil {
				return err
			}
			b.sel = sel
		}
		return nil
	})
	s.residual = nil
	return batches, err
}

// --- Filter / Project / Limit ---

type vecFilter struct {
	in     batchIterator
	pred   vecPred
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
		sel, err := f.pred(b, b.selection())
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
	cols := make([]*store.Col, len(p.exprs))
	if err := evalAll(p.exprs, b, b.selection(), cols); err != nil {
		return nil, err
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

// --- Aggregation ---

// buildAgg lowers an AggNode to hash aggregation over batches, or to an
// overlay read or a group-join when the shape allows one.
func buildAgg(n *AggNode, ec *execCtx, depth int) (batchIterator, error) {
	if it, ok := tryOverlayRead(n, ec, depth); ok {
		return it, nil
	}
	if it, ok, err := tryGroupJoin(n, ec, depth); ok || err != nil {
		return it, err
	}
	env := ec.env(n.Input.Schema())
	groups, err := bindVecs(n.GroupBy, env)
	if err != nil {
		return nil, err
	}
	args := make([]*vecExpr, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Star {
			continue
		}
		if args[i], err = bindVec(a.Arg, env); err != nil {
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
// evaluated per batch, the batch is probed into group ids and folded
// into an aggTable's per-aggregate vectors, and — with Parallelism > 1
// — per-worker partial tables over contiguous input chunks are merged
// in chunk order, which reproduces the serial first-seen group order
// exactly. It drains its input on the first call, then streams one row
// per group (group keys, then aggregates).
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
		final, err := foldAll(a.ec, a.in, a.op, func() (*aggTable, func(*batch) error) {
			t := newAggTable(a.aggs, len(a.groups) > 0)
			return t, func(b *batch) error { return a.accumBatch(t, b) }
		})
		if err != nil {
			return nil, err
		}
		a.out = aggOutput(final, cancel, a.op)
	}
	return a.out.nextBatch()
}

// aggOutput streams a folded table's result, one row per group; a
// global aggregate over an empty input still yields its one row.
func aggOutput(t *aggTable, cancel canceller, op *OpStats) *vecScan {
	if t.groups == nil {
		t.grow(1)
	}
	return &vecScan{batches: batchesOf(t.output()), cancel: cancel, op: op}
}

// accumBatch evaluates group and argument expressions over one batch —
// every group key, then every argument, as the reference executor
// does — and folds its live rows into the table.
func (a *vecAgg) accumBatch(t *aggTable, b *batch) error {
	sel := b.selection()
	if t.cols == nil {
		t.cols = make([]*store.Col, len(a.groups)+len(a.args))
	}
	gcols, acols := t.cols[:len(a.groups)], t.cols[len(a.groups):]
	if err := evalAll(a.groups, b, sel, gcols); err != nil {
		return err
	}
	if err := evalAll(a.args, b, sel, acols); err != nil {
		return err
	}
	t.accum(gcols, acols, sel)
	return nil
}

// foldAll folds the whole input into one table, counting its rows as
// op's input; part returns a fresh partial table and the function that
// folds one batch into it. A scan over a pinned view is folded straight
// from storage (foldSelected). Any other input is folded batch by batch
// as it streams in, or — with Parallelism > 1 — materialized and
// folded by foldChunks.
func foldAll(ec *execCtx, in batchIterator, op *OpStats, part func() (*aggTable, func(*batch) error)) (*aggTable, error) {
	if s, ok := in.(*vecScan); ok && s.read != nil && s.read.tv.Pinned() {
		return s.foldSelected(op, part)
	}
	if ec.para == 1 {
		final, fold := part()
		cancel := canceller{ctx: ec.ctx}
		for {
			if err := cancel.now(); err != nil {
				return nil, err
			}
			b, err := in.nextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return final, nil
			}
			op.addIn(int64(b.live()))
			if err := fold(b); err != nil {
				return nil, err
			}
		}
	}
	bs, err := drainBatches(ec.ctx, in)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range bs {
		total += b.live()
	}
	op.addIn(int64(total))
	return foldChunks(ec, len(bs), total, part, func(r morselRange, fold func(*batch) error) error {
		c := canceller{ctx: ec.ctx}
		for _, b := range bs[r.lo:r.hi] {
			if err := c.now(); err != nil {
				return err
			}
			if err := fold(b); err != nil {
				return err
			}
		}
		return nil
	})
}

// foldChunks folds n input batches holding total rows: one partial
// table per contiguous chunk of batches — one chunk per worker, or a
// single one when too few rows for partial tables to pay —, each chunk
// folded by foldRange, the partials merged in chunk order.
func foldChunks(ec *execCtx, n, total int, part func() (*aggTable, func(*batch) error), foldRange func(morselRange, func(*batch) error) error) (*aggTable, error) {
	chunks := splitChunks(n, ec.para)
	if total < 2*vecBatchSize {
		chunks = splitChunks(n, 1)
	}
	if len(chunks) == 0 {
		final, _ := part()
		return final, nil
	}
	partials := make([]*aggTable, len(chunks))
	err := runChunks(ec.ctx, chunks, func(w int, r morselRange) error {
		t, fold := part()
		partials[w] = t
		return foldRange(r, fold)
	})
	if err != nil {
		return nil, err
	}
	// The first chunk's table is the final one; the rest re-probe into it.
	for _, p := range partials[1:] {
		partials[0].merge(p)
	}
	return partials[0], nil
}
