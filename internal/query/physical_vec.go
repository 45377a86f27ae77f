package query

import (
	"errors"
	"fmt"
	"slices"

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
// selects every visible row, runs its residual once over the whole
// selection — filling only the columns the residual reads — and copies
// out only the emitted columns of the rows that pass (foldscan.go).
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
	scan := &vecScan{read: &scanRead{tv: tv, a: a, ec: ec, indexed: true, width: n.schema.Len()}, cancel: canceller{ctx: ec.ctx}, op: op}
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
	r := &scanRead{tv: tv, a: store.Access{Cols: n.proj}, ec: ec, width: n.schema.Len()}
	layout := n.schema
	if len(path.residual) > 0 {
		pred := joinConjuncts(path.residual)
		if n.proj != nil {
			layout = &planSchema{cols: append([]planCol(nil), n.schema.cols...)}
			r.a.Cols = append([]int(nil), n.proj...)
			for _, ref := range exprColumns(pred) {
				if _, ok := layout.lookup(ref); ok {
					continue
				}
				ci, err := n.base.resolve(ref)
				if err != nil {
					return nil, err
				}
				layout.cols = append(layout.cols, n.base.cols[ci])
				r.a.Cols = append(r.a.Cols, ci)
			}
		}
		var err error
		if r.residual, err = bindVecPred(pred, ec.env(layout)); err != nil {
			return nil, err
		}
		for _, ref := range exprColumns(pred) {
			if i, ok := layout.lookup(ref); ok && !slices.Contains(r.filterCols, i) {
				r.filterCols = append(r.filterCols, i)
			}
		}
	}
	op := ec.note(depth, "%s", path.describe(n))
	return &vecScan{read: r, cancel: canceller{ctx: ec.ctx}, op: op}, nil
}

// scanRead is the table read behind a scan operator: one store access on
// the statement's pinned view of the table, run once (foldscan.go). Its
// output columns are the scan's width emitted columns, then — on a
// sequential scan with a residual — the other columns the residual
// reads.
type scanRead struct {
	tv *store.TableView
	a  store.Access
	ec *execCtx
	// indexed: the access walks an index (its examined rows count as
	// RowsIndexed), else it is a sequential pass (RowsScanned).
	indexed bool
	// width is how many of the access's output columns the scan emits.
	width int
	// residual is a sequential scan's filter, and filterCols the output
	// columns it reads.
	residual   vecPred
	filterCols []int
}

// count records the rows the read examined, on the statement's counters
// and as op's input.
func (r *scanRead) count(examined int, op *OpStats) {
	if r.indexed {
		r.ec.stats.RowsIndexed += int64(examined)
	} else {
		r.ec.stats.RowsScanned += int64(examined)
	}
	op.addIn(int64(examined))
}

// vecScan streams materialized batches: its read's, copied out of
// storage on the first call (stream), when it has one.
type vecScan struct {
	read    *scanRead
	batches []*batch
	pos     int
	cancel  canceller
	op      *OpStats
}

func (s *vecScan) nextBatch() (*batch, error) {
	for {
		if err := s.cancel.now(); err != nil {
			return nil, err
		}
		if err := s.load(); err != nil {
			return nil, err
		}
		if s.pos >= len(s.batches) {
			return nil, nil
		}
		b := s.batches[s.pos]
		s.pos++
		if b.live() == 0 {
			continue
		}
		s.op.emit(b)
		return b, nil
	}
}

// load runs the scan's read, when it has one that has not run, without
// emitting a batch.
func (s *vecScan) load() error {
	if s.read == nil {
		return nil
	}
	bs, err := s.stream()
	s.batches = bs
	return err
}

// --- Filter / Project / Limit ---

type vecFilter struct {
	in   batchIterator
	pred vecPred
	// sels, over a scan, holds the predicate's selection of each batch
	// the scan has yet to emit, in emit order.
	sels   [][]int
	cancel canceller
	op     *OpStats
}

func (f *vecFilter) nextBatch() (*batch, error) {
	// A filter over a scan — a plan without pushdown — runs its predicate
	// over every row the scan read before the first row leaves, as a
	// sequential scan's residual does, so a LIMIT above cannot hide a row
	// that fails. The scan still emits, and is counted, batch by batch.
	if s, ok := f.in.(*vecScan); ok && s.read != nil {
		if err := s.load(); err != nil {
			return nil, err
		}
		f.sels = make([][]int, len(s.batches))
		for i, b := range s.batches {
			if err := f.cancel.now(); err != nil {
				return nil, err
			}
			sel, err := f.pred(b, b.selection())
			if err != nil {
				return nil, err
			}
			f.sels[i] = sel
		}
	}
	for {
		if err := f.cancel.now(); err != nil {
			return nil, err
		}
		b, err := f.in.nextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		f.op.addIn(int64(b.live()))
		var sel []int
		if f.sels != nil {
			sel, f.sels = f.sels[0], f.sels[1:]
		} else if sel, err = f.pred(b, b.selection()); err != nil {
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
// evaluated per batch, and the batch is probed into group ids and
// folded into an aggTable's per-aggregate vectors, so groups come out
// in first-seen order. It folds its whole input on the first call,
// then streams one row per group (group keys, then aggregates).
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
		t := newAggTable(a.aggs, len(a.groups) > 0, a.ec.dict())
		if err := foldAll(a.ec, a.in, a.op, func(b *batch) error { return a.accumBatch(t, b) }); err != nil {
			return nil, err
		}
		a.out = aggOutput(t, cancel, a.op)
	}
	return a.out.nextBatch()
}

// aggOutput streams a folded table's result, one row per group; a
// global aggregate over an empty input still yields its one row.
func aggOutput(t *aggTable, cancel canceller, op *OpStats) *vecScan {
	if t.groups == nil {
		t.grow(1)
	}
	return &vecScan{batches: batchesOf(t.output(), nil), cancel: cancel, op: op}
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

// foldAll folds the whole input through fold, counting its rows as
// op's input. A scan that has not read yet is folded straight from
// storage (foldSelected); any other input is folded batch by batch as
// it streams in.
func foldAll(ec *execCtx, in batchIterator, op *OpStats, fold func(*batch) error) error {
	if s, ok := in.(*vecScan); ok && s.read != nil {
		return s.foldSelected(op, fold)
	}
	cancel := canceller{ctx: ec.ctx}
	for {
		if err := cancel.now(); err != nil {
			return err
		}
		b, err := in.nextBatch()
		if err != nil || b == nil {
			return err
		}
		op.addIn(int64(b.live()))
		if err := fold(b); err != nil {
			return err
		}
	}
}
