package query

import "drugtree/internal/store"

// The group-join. An aggregate directly over an inner hash join with no
// residual, whose group keys read only the build side and whose
// arguments read only the probe side, runs as one operator: it hashes
// the build side, probes with the other, and folds each match straight
// into the aggregate table's typed vectors — no joined pair is ever
// materialized. Each build row takes its group id on its first match,
// so groups are numbered in the order the joined pairs would have
// reached an aggregate above the join.

// tryGroupJoin lowers n to a group-join when its shape allows one and
// the optimizer may choose physical operators.
func tryGroupJoin(n *AggNode, ec *execCtx, depth int) (batchIterator, bool, error) {
	j, ok := n.Input.(*JoinNode)
	if !ok || !ec.opts.UseIndexes {
		return nil, false, nil
	}
	e := splitJoin(j)
	if len(e.buildKeys) == 0 || len(e.residual) > 0 {
		return nil, false, nil
	}
	buildSide, probeSide := e.sides()
	for _, g := range n.GroupBy {
		if !coveredBy(g, buildSide.Schema()) {
			return nil, false, nil
		}
	}
	for _, a := range n.Aggs {
		if !a.Star && !coveredBy(a.Arg, probeSide.Schema()) {
			return nil, false, nil
		}
	}
	groups, err := bindVecs(n.GroupBy, ec.env(buildSide.Schema()))
	if err != nil {
		return nil, false, err
	}
	args := make([]*vecExpr, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Star {
			continue
		}
		if args[i], err = bindVec(a.Arg, ec.env(probeSide.Schema())); err != nil {
			return nil, false, err
		}
	}
	e.chooseProbe(ec)
	op := ec.note(depth, "GroupJoin %s %s", n.items(), e.note())
	op.Build = e.side()
	buildIn, probeIn, err := e.lower(ec, depth)
	if err != nil {
		return nil, false, err
	}
	return &vecGroupJoin{e: e, buildIn: buildIn, probeIn: probeIn, buildWidth: buildSide.Schema().Len(),
		groups: groups, aggs: n.Aggs, args: args, ec: ec, op: op}, true, nil
}

// vecGroupJoin is the group-join operator: on the first call it hashes
// the build side, folds the whole probe side, then streams one row per
// group (group keys, then aggregates).
type vecGroupJoin struct {
	e                *equiJoin
	buildIn, probeIn batchIterator
	buildWidth       int
	groups           []*vecExpr // over the build side's rows
	aggs             []*AggExpr
	args             []*vecExpr // over the probe side's batches; nil for star aggregates
	ec               *execCtx
	op               *OpStats
	out              *vecScan
}

func (g *vecGroupJoin) nextBatch() (*batch, error) {
	cancel := canceller{ctx: g.ec.ctx}
	if err := cancel.now(); err != nil {
		return nil, err
	}
	if g.out == nil {
		side, err := g.e.open(g.ec, g.buildIn, identity(g.buildWidth), g.op)
		if err != nil {
			return nil, err
		}
		p := &groupJoinFold{g: g, side: side, t: newAggTable(g.aggs, len(g.groups) > 0, g.ec.dict()), cur: side.newProber(g.e.probeKeys, g.ec.dict(), g.ec.arena),
			gid: make([]int32, side.rows.n), acols: make([]*store.Col, len(g.aggs))}
		if len(g.groups) == 0 {
			p.t.grow(1) // every build row is in group 0
		} else {
			for i := range p.gid {
				p.gid[i] = -1
			}
			p.fresh, p.gcols = make([]int, 0, min(side.rows.n, vecBatchSize)), make([]*store.Col, len(g.groups))
		}
		if err := foldAll(g.ec, g.probeIn, g.op, p.fold); err != nil {
			return nil, err
		}
		g.out = aggOutput(p.t, cancel, g.op)
	}
	return g.out.nextBatch()
}

// groupJoinFold is the group-join's probe state: its table, each build
// row's group id in it (-1 until the row first matches), the prober,
// and per-round scratch.
type groupJoinFold struct {
	g     *vecGroupJoin
	side  *hashSide
	t     *aggTable
	cur   *prober
	gid   []int32
	fresh []int        // build rows matched for the first time
	gcols []*store.Col // group keys over the build rows
	acols []*store.Col // arguments over the probe batch
}

// fold probes one batch and folds its matches, a round of at most
// vecBatchSize at a time.
func (p *groupJoinFold) fold(pb *batch) error {
	c := canceller{ctx: p.g.ec.ctx}
	for p.cur.start(pb); !p.cur.done(); {
		if err := c.now(); err != nil {
			return err
		}
		p.side.match(p.cur)
		if err := p.foldRound(pb); err != nil {
			return err
		}
	}
	return nil
}

func (p *groupJoinFold) foldRound(pb *batch) error {
	pi, bi := p.cur.pi, p.cur.bi
	if len(pi) == 0 {
		return nil
	}
	p.g.ec.stats.RowsJoined += int64(len(pi))
	p.fresh = p.fresh[:0]
	for _, b := range bi {
		if p.gid[b] == -1 {
			p.gid[b] = -2 // listed
			p.fresh = append(p.fresh, int(b))
		}
	}
	if len(p.fresh) > 0 {
		// Group keys are evaluated on matched build rows only, in match
		// order, so an expression that can fail fails as it would have
		// over the joined pairs.
		if err := evalAll(p.g.groups, p.side.rows, p.fresh, p.gcols); err != nil {
			return err
		}
		for k, id := range p.t.groupIDs(p.gcols, p.fresh) {
			p.gid[p.fresh[k]] = id
		}
	}
	for k, b := range bi {
		bi[k] = p.gid[b] // the match's group, over its build row: the prober rewrites bi next round
	}
	// The arguments are evaluated at the matches' probe rows, a row
	// matched more than once listed as often (which only repeats work).
	if err := evalAll(p.g.args, pb, pi, p.acols); err != nil {
		return err
	}
	p.t.fold(p.acols, pi, bi)
	return nil
}
