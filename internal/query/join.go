package query

import (
	"strings"
	"sync/atomic"

	"drugtree/internal/store"
)

// Joins. Both operators stream one input (the probe side) against the
// other, drained (the build side), find matching row pairs as two index
// vectors, and only then materialize — column at a time, sized to the
// match count — the columns the parent reads plus any the residual
// needs (joinOutput). Result order follows the probe side: probe rows
// in arrival order, each with its build matches in build arrival order.

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
	// The hash join builds on the side the optimizer estimated smaller;
	// the nested loop always drains the right.
	buildLeft := n.buildLeft && len(leftIdx) > 0
	out, err := newJoinOutput(n, buildLeft, joinConjuncts(residual), ec)
	if err != nil {
		return nil, err
	}
	var op *OpStats
	if len(leftIdx) > 0 {
		side := "right"
		if buildLeft {
			side = "left"
		}
		op = ec.note(depth, "HashJoin (%d key(s), build=%s)%s%s", len(leftIdx), side, n.colsNote(), joinResidualNote(residual))
		op.Build = side
	} else {
		op = ec.note(depth, "NestedLoopJoin%s%s", n.colsNote(), joinResidualNote(residual))
	}
	left, err := build(n.Left, ec, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := build(n.Right, ec, depth+1)
	if err != nil {
		return nil, err
	}
	if len(leftIdx) == 0 {
		return newVecNestedLoop(ec, left, right, out, op)
	}
	if buildLeft {
		return newVecHashJoin(ec, right, left, rightIdx, leftIdx, out, op)
	}
	return newVecHashJoin(ec, left, right, leftIdx, rightIdx, out, op)
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

// joinCol names one input column of a join: column idx of the build
// side's (or else the probe side's) batches.
type joinCol struct {
	build bool
	idx   int
}

// joinOutput is what a join materializes for each batch of matching
// pairs: the first width columns are the ones it emits (the node's
// projection, in schema order), the rest are extra columns the residual
// reads, dropped once it has run.
type joinOutput struct {
	cols     []joinCol
	width    int
	residual *vecPred
	// buildCols lists the build-side input columns some joinCol reads;
	// the join keeps only these of the drained side, and a build joinCol's
	// idx is a position in this list.
	buildCols []int
}

// newJoinOutput lays out a join's output: the node's projection (every
// column when it has none), then whatever else the residual reads, the
// residual bound against that layout.
func newJoinOutput(n *JoinNode, buildLeft bool, residual Expr, ec *execCtx) (*joinOutput, error) {
	full := n.Left.Schema().concat(n.Right.Schema())
	nLeft := n.Left.Schema().Len()
	emit := n.proj
	if emit == nil {
		emit = make([]int, full.Len())
		for i := range emit {
			emit[i] = i
		}
	}
	out := &joinOutput{width: len(emit)}
	layout := &planSchema{}
	add := func(ci int) {
		jc := joinCol{build: (ci < nLeft) == buildLeft, idx: ci}
		if ci >= nLeft {
			jc.idx = ci - nLeft
		}
		if jc.build {
			out.buildCols = append(out.buildCols, jc.idx)
			jc.idx = len(out.buildCols) - 1
		}
		out.cols = append(out.cols, jc)
		layout.cols = append(layout.cols, full.cols[ci])
	}
	for _, ci := range emit {
		add(ci)
	}
	if residual == nil {
		return out, nil
	}
	for _, ref := range exprColumns(residual) {
		if _, err := layout.resolve(ref); err == nil {
			continue
		}
		ci, err := full.resolve(ref)
		if err != nil {
			return nil, err
		}
		add(ci)
	}
	var err error
	out.residual, err = bindVecPred(residual, ec.env(layout))
	return out, err
}

// emit materializes the pairs (probe row pi[k], build row bi[k]) as one
// dense batch — column at a time, sized to the pair count, the column
// headers and the null masks one allocation each — and returns the rows
// the residual accepts, or nil when none survive.
func (o *joinOutput) emit(probe, build *batch, pi, bi []int32) (*batch, error) {
	m := len(pi)
	if m == 0 {
		return nil, nil
	}
	cols, ptrs, nulls := make([]store.Col, len(o.cols)), make([]*store.Col, len(o.cols)), make([]bool, len(o.cols)*m)
	for k, jc := range o.cols {
		ptrs[k] = &cols[k]
		cols[k].Null = nulls[k*m : (k+1)*m : (k+1)*m]
		if jc.build {
			gatherInto(&cols[k], build.cols[jc.idx], bi)
		} else {
			gatherInto(&cols[k], probe.cols[jc.idx], pi)
		}
	}
	out := &batch{cols: ptrs, n: m}
	if o.residual != nil {
		sel, err := o.residual.filter(out, out.selection())
		if err != nil || len(sel) == 0 {
			return nil, err
		}
		out.sel = sel
	}
	out.cols = out.cols[:o.width]
	return out, nil
}

// vecHashJoin hashes the drained build side's keys into a hashTab —
// one entry per distinct key, the rows sharing it chained through next
// in arrival order over the one concatenated build batch — and probes
// with the other input, at most vecBatchSize pairs per output batch.
// NULL keys never join.
type vecHashJoin struct {
	probeIn batchIterator
	build   *batch   // the build side's output columns, concatenated
	tab     *hashTab // distinct build keys
	head    []int32  // per entry: its first build row
	next    []int32  // per build row: the next row with the same key, or -1
	out     *joinOutput
	stats   *ExecStats
	cancel  canceller
	op      *OpStats
	cur     *prober
}

func newVecHashJoin(ec *execCtx, probeIn, buildIn batchIterator, probeKeys, buildKeys []int, out *joinOutput, op *OpStats) (batchIterator, error) {
	bbs, err := drainBatches(ec.ctx, buildIn)
	if err != nil {
		return nil, err
	}
	j := &vecHashJoin{
		probeIn: probeIn,
		build:   concatBatches(bbs, out.buildCols),
		out:     out,
		stats:   ec.stats,
		cancel:  canceller{ctx: ec.ctx},
		op:      op,
	}
	op.BuildRows = int64(j.build.n)
	// First every row's entry id, written where its chain link will go;
	// then, last row first, each row is pushed on the front of its
	// entry's chain, which leaves the chains in arrival order.
	j.tab = newHashTab(false, j.build.n)
	j.next = make([]int32, j.build.n)
	keys := make([]*store.Col, len(buildKeys))
	row := 0
	for _, bb := range bbs {
		if err := j.cancel.now(); err != nil {
			return nil, err
		}
		for k, c := range buildKeys {
			keys[k] = bb.cols[c]
		}
		j.tab.insertBatch(keys, bb.selection(), j.next[row:row+bb.live()])
		row += bb.live()
	}
	j.head = make([]int32, j.tab.len())
	for id := range j.head {
		j.head[id] = -1
	}
	for row := len(j.next) - 1; row >= 0; row-- {
		if id := j.next[row]; id >= 0 { // a NULL key's row is in no chain
			j.next[row], j.head[id] = j.head[id], int32(row)
		}
	}
	if ec.para == 1 {
		j.cur = newProber(probeKeys)
		return j, nil
	}
	// Parallel probe: drain the probe side and process contiguous
	// chunks of batches on the pool. Per-batch outputs keep their
	// slots, so concatenation preserves the serial output order.
	pbs, err := drainBatches(ec.ctx, probeIn)
	if err != nil {
		return nil, err
	}
	outs := make([][]*batch, len(pbs))
	err = runChunks(ec.ctx, splitChunks(len(pbs), ec.para), func(_ int, r morselRange) error {
		c := canceller{ctx: ec.ctx}
		cur := newProber(probeKeys)
		for k := r.lo; k < r.hi; k++ {
			for cur.start(pbs[k]); !cur.done(); {
				if err := c.now(); err != nil {
					return err
				}
				out, err := j.probe(cur)
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
	for k, o := range outs {
		op.addIn(int64(pbs[k].live()))
		for _, b := range o {
			joined += int64(b.live())
		}
		flat = append(flat, o...)
	}
	atomic.AddInt64(&ec.stats.RowsJoined, joined)
	return &vecScan{batches: flat, cancel: canceller{ctx: ec.ctx}, op: op}, nil
}

// prober is one worker's probe state: its position inside the current
// probe batch — the next live row to look up, and what is left of the
// current row's chain — and its reusable match-index vectors.
type prober struct {
	keyIdx []int
	keys   []*store.Col // the batch's key columns
	pb     *batch
	sel    []int
	pos    int     // next position in sel
	row    int     // row the chain belongs to
	chain  int32   // next build row of the chain, or -1
	pi, bi []int32 // the matches found: probe rows, build rows
}

// newProber returns a prober that is done; start points it at a batch.
func newProber(keyIdx []int) *prober {
	return &prober{keyIdx: keyIdx, keys: make([]*store.Col, len(keyIdx)), chain: -1}
}

func (p *prober) start(pb *batch) {
	for k, c := range p.keyIdx {
		p.keys[k] = pb.cols[c]
	}
	p.pb, p.sel, p.pos, p.chain = pb, pb.selection(), 0, -1
	if p.pi == nil {
		// Most probes find at most a match a row; longer chains grow it.
		p.pi, p.bi = make([]int32, 0, len(p.sel)), make([]int32, 0, len(p.sel))
	}
}

func (p *prober) done() bool { return p.pos >= len(p.sel) && p.chain < 0 }

func (j *vecHashJoin) nextBatch() (*batch, error) {
	for {
		if err := j.cancel.now(); err != nil {
			return nil, err
		}
		if j.cur.done() {
			pb, err := j.probeIn.nextBatch()
			if err != nil || pb == nil {
				return nil, err
			}
			j.op.addIn(int64(pb.live()))
			j.cur.start(pb)
		}
		out, err := j.probe(j.cur)
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
func (j *vecHashJoin) probe(cur *prober) (*batch, error) {
	cur.pi, cur.bi = cur.pi[:0], cur.bi[:0]
	for !cur.done() && len(cur.pi) < vecBatchSize {
		if cur.chain < 0 {
			cur.row = cur.sel[cur.pos]
			cur.pos++
			if id := j.tab.find(cur.keys, cur.row); id >= 0 {
				cur.chain = j.head[id]
			}
			continue
		}
		cur.pi, cur.bi = append(cur.pi, int32(cur.row)), append(cur.bi, cur.chain)
		cur.chain = j.next[cur.chain]
	}
	return j.out.emit(cur.pb, j.build, cur.pi, cur.bi)
}

// vecNestedLoop joins every left row with every row of the drained
// right side, at most vecBatchSize candidate pairs per output batch,
// keeping those the residual accepts.
type vecNestedLoop struct {
	left   batchIterator
	right  *batch // the right side's output columns, concatenated
	out    *joinOutput
	stats  *ExecStats
	cancel canceller
	op     *OpStats
	pi, bi []int32 // reusable candidate-pair index vectors

	lb   *batch
	lsel []int
	lpos int // current left row (position in lsel)
	rpos int // next right row for it
}

func newVecNestedLoop(ec *execCtx, left, right batchIterator, out *joinOutput, op *OpStats) (batchIterator, error) {
	rbs, err := drainBatches(ec.ctx, right)
	if err != nil {
		return nil, err
	}
	return &vecNestedLoop{left: left, right: concatBatches(rbs, out.buildCols), out: out, stats: ec.stats, cancel: canceller{ctx: ec.ctx}, op: op}, nil
}

func (j *vecNestedLoop) nextBatch() (*batch, error) {
	for {
		if err := j.cancel.now(); err != nil {
			return nil, err
		}
		if j.lpos >= len(j.lsel) || j.right.n == 0 {
			lb, err := j.left.nextBatch()
			if err != nil || lb == nil {
				return nil, err
			}
			j.op.addIn(int64(lb.live()))
			j.lb, j.lsel, j.lpos, j.rpos = lb, lb.selection(), 0, 0
			continue
		}
		pi, bi := j.pi[:0], j.bi[:0]
		for len(pi) < vecBatchSize && j.lpos < len(j.lsel) {
			if j.rpos == j.right.n {
				j.lpos, j.rpos = j.lpos+1, 0
				continue
			}
			pi, bi = append(pi, int32(j.lsel[j.lpos])), append(bi, int32(j.rpos))
			j.rpos++
		}
		j.pi, j.bi = pi, bi
		out, err := j.out.emit(j.lb, j.right, pi, bi)
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
