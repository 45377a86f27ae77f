package query

import (
	"fmt"
	"math"
	"strings"

	"drugtree/internal/store"
)

// Joins. Both operators stream one input (the probe side) against the
// other, drained (the build side), find matching row pairs as two index
// vectors, and only then materialize — column at a time, sized to the
// match count — the columns the parent reads plus any the residual
// needs (joinOutput). Result order follows the probe side: probe rows
// in arrival order, each with its build matches in build arrival order.
// Neither reads an input before its own first call, so a plain EXPLAIN
// executes nothing.

// buildJoin picks the hash join for equi-conditions and the nested loop
// otherwise; conjuncts that are not column = column across the two
// sides run as a residual filter over the joined batch.
func buildJoin(n *JoinNode, ec *execCtx, depth int) (batchIterator, error) {
	e := splitJoin(n)
	out, err := newJoinOutput(n, e.buildLeft, joinConjuncts(e.residual), ec)
	if err != nil {
		return nil, err
	}
	cancel := canceller{ctx: ec.ctx}
	if len(e.buildKeys) == 0 {
		op := ec.note(depth, "NestedLoopJoin%s%s", n.colsNote(), joinResidualNote(e.residual))
		left, err := build(n.Left, ec, depth+1)
		if err != nil {
			return nil, err
		}
		right, err := build(n.Right, ec, depth+1)
		if err != nil {
			return nil, err
		}
		return &vecNestedLoop{left: left, rightIn: right, out: out, stats: ec.stats, cancel: cancel, op: op}, nil
	}
	e.chooseProbe(ec)
	op := ec.note(depth, "HashJoin %s%s%s", e.note(), n.colsNote(), joinResidualNote(e.residual))
	op.Build = e.side()
	buildIn, probeIn, err := e.lower(ec, depth)
	if err != nil {
		return nil, err
	}
	return &vecHashJoin{e: e, buildIn: buildIn, probeIn: probeIn, out: out, ec: ec, cancel: cancel, op: op}, nil
}

// equiJoin is a join lowered for hashing: which input is hashed, the
// key columns on either side, the conjuncts left over and — when the
// probe input is a scan a one-key join may key — the path it is read by.
type equiJoin struct {
	n                    *JoinNode
	buildLeft            bool
	buildKeys, probeKeys []int
	residual             []Expr
	// probe is probePath's choice for the probe scan (nil: the probe
	// input is lowered as any input), and access that scan's store
	// access, to which open gives the build's keys on a keyed probe.
	probe  *accessPath
	access *store.Access
}

// splitJoin sorts a join condition's conjuncts into column = column
// pairs across the two sides and the residual. The hash join builds on
// the side the optimizer estimated smaller; without keys the nested
// loop drains the right.
func splitJoin(n *JoinNode) *equiJoin {
	leftSchema, rightSchema := n.Left.Schema(), n.Right.Schema()
	var leftIdx, rightIdx []int
	var residual []Expr
	for _, c := range splitConjuncts(n.Cond) {
		if b, ok := c.(*BinaryExpr); ok && b.Op == OpEq {
			lcol, lOK := b.L.(*ColumnRef)
			rcol, rOK := b.R.(*ColumnRef)
			if lOK && rOK {
				// Which side does each belong to?
				li, lok := leftSchema.lookup(lcol)
				ri, rok := rightSchema.lookup(rcol)
				if !lok || !rok {
					li, lok = leftSchema.lookup(rcol)
					ri, rok = rightSchema.lookup(lcol)
				}
				if lok && rok {
					leftIdx = append(leftIdx, li)
					rightIdx = append(rightIdx, ri)
					continue
				}
			}
		}
		if isTrue(c) {
			continue // constant TRUE from pushdown
		}
		residual = append(residual, c)
	}
	e := &equiJoin{n: n, buildLeft: n.buildLeft && len(leftIdx) > 0, buildKeys: rightIdx, probeKeys: leftIdx, residual: residual}
	if e.buildLeft {
		e.buildKeys, e.probeKeys = leftIdx, rightIdx
	}
	return e
}

// sides returns the build and the probe input.
func (e *equiJoin) sides() (buildSide, probeSide LogicalPlan) {
	if e.buildLeft {
		return e.n.Left, e.n.Right
	}
	return e.n.Right, e.n.Left
}

// side names the build input on the plan line: "left" or "right".
func (e *equiJoin) side() string {
	if e.buildLeft {
		return "left"
	}
	return "right"
}

// keyed reports whether the build side's keys drive the probe scan.
func (e *equiJoin) keyed() bool { return e.probe != nil && e.probe.kind == "joinkeys" }

// note renders the join's shape for its plan line.
func (e *equiJoin) note() string {
	probe := ""
	if e.keyed() {
		probe = ", probe=keys"
	}
	return fmt.Sprintf("(%d key(s), build=%s%s)", len(e.buildKeys), e.side(), probe)
}

// chooseProbe lets probePath decide how a one-key join reads a probe
// input that is a scan.
func (e *equiJoin) chooseProbe(ec *execCtx) {
	buildSide, probeSide := e.sides()
	scan, ok := probeSide.(*ScanNode)
	if !ok || len(e.buildKeys) != 1 {
		return
	}
	tv, err := ec.view(scan.Table)
	if err != nil {
		return // lowering the scan reports it
	}
	path := probePath(e.n, buildSide.Schema().cols[e.buildKeys[0]].Kind, scan, e.probeKeys[0], tv.Table(), ec)
	e.probe = &path
}

// lower builds both inputs' operators in tree order, so their plan
// lines follow the join's, a probe scan along the path chooseProbe
// chose, and returns them build side first.
func (e *equiJoin) lower(ec *execCtx, depth int) (buildIn, probeIn batchIterator, err error) {
	var its [2]batchIterator
	for i, child := range []LogicalPlan{e.n.Left, e.n.Right} {
		if probe := (i == 1) == e.buildLeft; !probe || e.probe == nil {
			if its[i], err = build(child, ec, depth+1); err != nil {
				return nil, nil, err
			}
			continue
		}
		scan := child.(*ScanNode)
		tv, err := ec.view(scan.Table)
		if err != nil {
			return nil, nil, err
		}
		s, a, err := lowerScan(scan, tv, *e.probe, ec, depth+1)
		if err != nil {
			return nil, nil, err
		}
		its[i], e.access = s, a
	}
	if e.buildLeft {
		return its[0], its[1], nil
	}
	return its[1], its[0], nil
}

// open drains the build input, keeping its columns cols, chains its
// rows by key, and — for a keyed probe — gives the probe scan the
// build's distinct keys before anything reads the probe side. A build
// whose one key column is coded, with codes spanning no more slots than
// a hashTab of its rows would allocate, is indexed by code (codeSpan);
// any other build is hashed.
func (e *equiJoin) open(ec *execCtx, in batchIterator, cols []int, op *OpStats) (*hashSide, error) {
	bbs, err := drainBatches(ec.ctx, in)
	if err != nil {
		return nil, err
	}
	h := &hashSide{rows: concatBatches(bbs, cols)}
	op.BuildRows = int64(h.rows.n)
	lo, span, coded := codeSpan(bbs, e.buildKeys, h.rows.n)
	if coded && !ec.hashCodes {
		h.lo = lo
	} else {
		h.tab = newHashTab(false, h.rows.n)
	}
	// First every row's key — its code's offset from lo, or its entry
	// id — written where its chain link will go; then, last row first,
	// each row is pushed on the front of its key's chain, which leaves
	// the chains in arrival order. Both arrays are the statement
	// arena's: the probe reads them until the statement ends.
	ec.arena.int32s(&h.next, h.rows.n)
	keys := make([]*store.Col, len(e.buildKeys))
	cancel := canceller{ctx: ec.ctx}
	row := 0
	for _, bb := range bbs {
		if err := cancel.now(); err != nil {
			return nil, err
		}
		for k, c := range e.buildKeys {
			keys[k] = bb.cols[c]
		}
		ids := h.next[row : row+bb.live()]
		if h.tab != nil {
			h.tab.insertBatch(keys, bb.selection(), ids)
		} else {
			codeOffsets(keys[0], bb.selection(), lo, ids)
		}
		row += bb.live()
	}
	if h.tab != nil {
		span = h.tab.len()
	}
	ec.arena.int32s(&h.head, span)
	for id := range h.head {
		h.head[id] = -1
	}
	for row := len(h.next) - 1; row >= 0; row-- {
		if id := h.next[row]; id >= 0 { // a NULL key's row is in no chain
			h.next[row], h.head[id] = h.head[id], int32(row)
		}
	}
	if e.keyed() {
		_, probeSide := e.sides()
		e.access.Keys = h.accessKeys(probeSide.Schema().cols[e.probeKeys[0]].Kind, ec.dict())
	}
	return h, nil
}

// codeSpan reports whether a build side of n rows may be indexed by
// code: it has one key, that key column is coded in every batch, and
// its codes span no more than the slots newHashTab would allocate for n
// entries. It returns the lowest code and the span, 0 when no key is
// non-NULL.
func codeSpan(bbs []*batch, keys []int, n int) (lo int64, span int, ok bool) {
	if len(keys) != 1 {
		return 0, 0, false
	}
	lo, hi := int64(math.MaxInt64), int64(-1)
	for _, bb := range bbs {
		c := bb.cols[keys[0]]
		if c.Kind != store.KindCode {
			return 0, 0, false
		}
		for _, i := range bb.selection() {
			if !c.Null[i] {
				lo, hi = min(lo, c.Int[i]), max(hi, c.Int[i])
			}
		}
	}
	if hi < lo {
		return 0, 0, true
	}
	if hi-lo >= int64(hashSlots(n)) {
		return 0, 0, false
	}
	return lo, int(hi - lo + 1), true
}

// codeOffsets writes each of coded column c's cells at sel, in order,
// into ids as its code's offset from lo, −1 for NULL.
func codeOffsets(c *store.Col, sel []int, lo int64, ids []int32) {
	for k, i := range sel {
		ids[k] = -1
		if !c.Null[i] {
			ids[k] = int32(c.Int[i] - lo)
		}
	}
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
	residual vecPred
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
		if _, ok := layout.lookup(ref); ok {
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
func (o *joinOutput) emit(probe, build *batch, pi []int, bi []int32) (*batch, error) {
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
		sel, err := o.residual(out, out.selection())
		if err != nil || len(sel) == 0 {
			return nil, err
		}
		out.sel = sel
	}
	out.cols = out.cols[:o.width]
	return out, nil
}

// hashSide is a hash join's drained build side: its rows concatenated
// into one batch, its distinct keys numbered — as offsets from lo when
// the key is a code (tab nil), else as a hashTab's entries — and the
// rows sharing a key chained through next in arrival order. NULL keys
// are in no chain: they never join.
type hashSide struct {
	rows *batch
	tab  *hashTab // nil: the key is a code, and code c is key c − lo
	lo   int64
	head []int32 // per key: its first build row, or -1
	next []int32 // per build row: the next row with the same key, or -1
}

// find returns the key row i of keys (in the side's form: prober.start)
// equals, or -1.
func (h *hashSide) find(keys []*store.Col, i int) int {
	if h.tab != nil {
		return int(h.tab.find(keys, i))
	}
	if c := keys[0]; !c.Null[i] {
		// A code outside the span, Dict.Encode's −1 included, is no key.
		if off := c.Int[i] - h.lo; uint64(off) < uint64(len(h.head)) {
			return int(off)
		}
	}
	return -1
}

// coded reports whether key column k is compared as codes.
func (h *hashSide) coded(k int) bool { return h.tab == nil || h.tab.keys[k].Kind == store.KindCode }

// match advances cur by up to vecBatchSize matching pairs, left in
// cur.pi and cur.bi; the caller polls its context and calls again until
// cur is done.
func (h *hashSide) match(cur *prober) {
	cur.pi, cur.bi = cur.pi[:0], cur.bi[:0]
	for !cur.done() && len(cur.pi) < vecBatchSize {
		if cur.chain < 0 {
			cur.row = cur.sel[cur.pos]
			cur.pos++
			if id := h.find(cur.keys, cur.row); id >= 0 {
				cur.chain = h.head[id]
			}
			continue
		}
		cur.pi, cur.bi = append(cur.pi, cur.row), append(cur.bi, cur.chain)
		cur.chain = h.next[cur.chain]
	}
}

// accessKeys lists the build side's distinct keys — non-NULL and
// distinct under store.Equal, coded ones decoded through d — in
// first-seen order as index probes on a column of kind kind: a keyed
// probe scan's rows follow this order. An INT key on a FLOAT column is
// widened as the index would widen it, and keys that widen alike are
// listed once, so no row is read twice.
func (h *hashSide) accessKeys(kind store.Kind, d *store.Dict) []store.Value {
	if h.tab == nil {
		// A code's first row heads its chain: listing each head's code
		// at its row lists the codes in first-seen order.
		codes := make([]int32, len(h.next))
		for i := range codes {
			codes[i] = -1
		}
		n := 0
		for off, row := range h.head {
			if row >= 0 {
				codes[row] = int32(off)
				n++
			}
		}
		keys, names := make([]store.Value, 0, n), d.Names()
		for _, off := range codes {
			if off >= 0 {
				keys = append(keys, store.StringValue(names[h.lo+int64(off)]))
			}
		}
		return keys
	}
	keys := make([]store.Value, 0, h.tab.len()) // non-nil: no keys reads no rows
	var widened map[float64]bool
	for e := 0; e < h.tab.len(); e++ {
		v := d.Value(&h.tab.keys[0], e)
		if v.K == store.KindInt && kind == store.KindFloat {
			f := float64(v.I)
			if widened == nil {
				widened = map[float64]bool{}
			}
			if widened[f] {
				continue
			}
			widened[f], v = true, store.FloatValue(f)
		}
		keys = append(keys, v)
	}
	return keys
}

// vecHashJoin hashes its build side on the first call and streams the
// other input through it, one probe batch at a time, at most
// vecBatchSize pairs per output batch.
type vecHashJoin struct {
	e                *equiJoin
	buildIn, probeIn batchIterator
	side             *hashSide // nil until the first call
	out              *joinOutput
	ec               *execCtx
	cancel           canceller
	op               *OpStats
	cur              *prober // the probe's position
}

func (j *vecHashJoin) nextBatch() (*batch, error) {
	if j.side == nil {
		side, err := j.e.open(j.ec, j.buildIn, j.out.buildCols, j.op)
		if err != nil {
			return nil, err
		}
		j.side, j.cur = side, side.newProber(j.e.probeKeys, j.ec.dict(), j.ec.arena)
	}
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
		j.side.match(j.cur)
		out, err := j.out.emit(j.cur.pb, j.side.rows, j.cur.pi, j.cur.bi)
		if err != nil {
			return nil, err
		}
		if out == nil {
			continue
		}
		j.ec.stats.RowsJoined += int64(out.live())
		j.op.emit(out)
		return out, nil
	}
}

// prober is a hash join's probe state: its position inside the current
// probe batch — the next live row to look up, and what is left of the
// current row's chain — and its reusable match-index vectors.
type prober struct {
	keyIdx []int
	keys   []*store.Col // the batch's key columns, in the side's form
	side   *hashSide
	dict   *store.Dict // what recodes a probe key of the other form
	arena  *arena      // what lends pi and bi
	pb     *batch
	sel    []int
	pos    int     // next position in sel
	row    int     // row the chain belongs to
	chain  int32   // next build row of the chain, or -1
	pi     []int   // the matches found: probe rows (selection order),
	bi     []int32 // and build rows
}

// newProber returns a prober of h on the probe columns keyIdx that is
// done, its match vectors to be lent by a; start points it at a batch.
func (h *hashSide) newProber(keyIdx []int, d *store.Dict, a *arena) *prober {
	return &prober{keyIdx: keyIdx, keys: make([]*store.Col, len(keyIdx)), side: h, dict: d, arena: a, chain: -1}
}

// start points p at pb, its key columns in the build side's form: a
// join of two coded columns compares codes, and one of a coded and a
// plain column recodes the probe's (codedAs). A side with no keys
// matches nothing, so p passes over the batch.
func (p *prober) start(pb *batch) {
	p.pb, p.sel, p.pos, p.chain = pb, pb.selection(), 0, -1
	if len(p.side.head) == 0 {
		p.sel = nil
		return
	}
	for k, c := range p.keyIdx {
		p.keys[k] = codedAs(p.side.coded(k), pb, pb.cols[c], p.sel, p.dict)
	}
	if p.pi == nil {
		// Most probes find at most a match a row; longer chains grow
		// them. They are the statement arena's, as the side's chains are.
		p.arena.ints(&p.pi, len(p.sel))
		p.arena.int32s(&p.bi, len(p.sel))
		p.pi, p.bi = p.pi[:0], p.bi[:0]
	}
}

func (p *prober) done() bool { return p.pos >= len(p.sel) && p.chain < 0 }

// vecNestedLoop joins every left row with every row of the right side,
// drained on the first call, at most vecBatchSize candidate pairs per
// output batch, keeping those the residual accepts.
type vecNestedLoop struct {
	left, rightIn batchIterator
	right         *batch // the right side's output columns, concatenated; nil until the first call
	out           *joinOutput
	stats         *ExecStats
	cancel        canceller
	op            *OpStats
	pi            []int   // reusable candidate-pair index vectors:
	bi            []int32 // left rows, right rows

	lb   *batch
	lsel []int
	lpos int // current left row (position in lsel)
	rpos int // next right row for it
}

func (j *vecNestedLoop) nextBatch() (*batch, error) {
	if j.right == nil {
		rbs, err := drainBatches(j.cancel.ctx, j.rightIn)
		if err != nil {
			return nil, err
		}
		j.right = concatBatches(rbs, j.out.buildCols)
	}
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
			pi, bi = append(pi, j.lsel[j.lpos]), append(bi, int32(j.rpos))
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
		j.stats.RowsJoined += int64(out.live())
		j.op.emit(out)
		return out, nil
	}
}
