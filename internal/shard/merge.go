package shard

import (
	"context"
	"fmt"

	"drugtree/internal/query"
	"drugtree/internal/store"
)

// aggPlan is the decomposition of an aggregate statement into a
// per-shard partial statement, a coordinator-side merge, and a final
// local statement applying HAVING/ORDER/LIMIT to the merged groups.
//
// The shard statement computes mergeable partials only: COUNT and SUM
// re-aggregate by addition, MIN/MAX by comparison, and AVG is split
// into SUM+COUNT. The merge reproduces the single-node engine's type
// discipline exactly — COUNT stays INT and never NULL, SUM/AVG are
// FLOAT or NULL when no non-NULL input was seen, MIN/MAX keep the
// input kind — which a SQL-level re-aggregation (SUM of COUNTs)
// could not, since it would widen INT counts to FLOAT.
type aggPlan struct {
	shardStmt *query.SelectStmt
	groups    int          // leading __g columns in the shard output
	partials  []partialDef // trailing __p columns
	finals    []finalAgg   // merged aggregates, one __a column each
	finalStmt *query.SelectStmt
	tempCols  []string // gather-table columns: __g0.. then __a0..
}

// partialDef is one per-shard partial aggregate column.
type partialDef struct {
	fn query.AggFunc // AggCount, AggSum, AggMin, or AggMax
}

// finalAgg reconstructs one original aggregate from partials: a is
// the primary partial index (the count for COUNT, the sum for
// SUM/AVG, the extremum for MIN/MAX); b is AVG's count partial.
type finalAgg struct {
	fn   query.AggFunc
	a, b int
}

// aggBuilder accumulates the decomposition state while the
// classifier walks the statement.
type aggBuilder struct {
	groupRender []string
	partials    []*query.AggExpr
	partialIdx  map[string]int
	finals      []finalAgg
	finalIdx    map[string]int // agg render → final index
	aliasTemp   map[string]string
}

func (ab *aggBuilder) partial(a *query.AggExpr) int {
	r := a.String()
	if i, ok := ab.partialIdx[r]; ok {
		return i
	}
	i := len(ab.partials)
	ab.partials = append(ab.partials, a)
	ab.partialIdx[r] = i
	return i
}

// registerAgg maps one original aggregate to its partials, returning
// the final column index.
func (ab *aggBuilder) registerAgg(a *query.AggExpr) int {
	r := a.String()
	if i, ok := ab.finalIdx[r]; ok {
		return i
	}
	var f finalAgg
	f.fn = a.Func
	switch a.Func {
	case query.AggCount:
		f.a = ab.partial(&query.AggExpr{Func: query.AggCount, Arg: cloneExpr(a.Arg), Star: a.Star})
	case query.AggSum:
		f.a = ab.partial(&query.AggExpr{Func: query.AggSum, Arg: cloneExpr(a.Arg)})
	case query.AggAvg:
		f.a = ab.partial(&query.AggExpr{Func: query.AggSum, Arg: cloneExpr(a.Arg)})
		f.b = ab.partial(&query.AggExpr{Func: query.AggCount, Arg: cloneExpr(a.Arg)})
	case query.AggMin, query.AggMax:
		f.a = ab.partial(&query.AggExpr{Func: a.Func, Arg: cloneExpr(a.Arg)})
	}
	i := len(ab.finals)
	ab.finals = append(ab.finals, f)
	ab.finalIdx[r] = i
	return i
}

// rewriteFinal rebuilds e over the gather table's columns: whole
// group renders become __g refs, aggregates become __a refs, and
// unqualified refs to item aliases resolve through the alias map.
// ok is false when e reaches a leaf the merged groups cannot answer.
func (ab *aggBuilder) rewriteFinal(e query.Expr) (query.Expr, bool) {
	if e == nil {
		return nil, true
	}
	r := e.String()
	for i, gr := range ab.groupRender {
		if r == gr {
			return &query.ColumnRef{Name: fmt.Sprintf("__g%d", i)}, true
		}
	}
	switch x := e.(type) {
	case *query.AggExpr:
		return &query.ColumnRef{Name: fmt.Sprintf("__a%d", ab.registerAgg(x))}, true
	case *query.ColumnRef:
		if x.Qualifier == "" {
			if tc, ok := ab.aliasTemp[x.Name]; ok {
				return &query.ColumnRef{Name: tc}, true
			}
		}
		return nil, false
	case *query.Literal:
		return cloneExpr(x), true
	case *query.BinaryExpr:
		l, ok := ab.rewriteFinal(x.L)
		if !ok {
			return nil, false
		}
		rr, ok := ab.rewriteFinal(x.R)
		if !ok {
			return nil, false
		}
		return &query.BinaryExpr{Op: x.Op, L: l, R: rr}, true
	case *query.NotExpr:
		inner, ok := ab.rewriteFinal(x.E)
		if !ok {
			return nil, false
		}
		return &query.NotExpr{E: inner}, true
	case *query.NegExpr:
		inner, ok := ab.rewriteFinal(x.E)
		if !ok {
			return nil, false
		}
		return &query.NegExpr{E: inner}, true
	}
	return nil, false
}

// buildAggPlan decomposes an aggregate statement, or reports that it
// is not partial-mergeable (the caller falls back to a full gather).
func (c *Coordinator) buildAggPlan(stmt *query.SelectStmt, aliases []aliasInfo) (*aggPlan, bool) {
	ab := &aggBuilder{
		partialIdx: make(map[string]int),
		finalIdx:   make(map[string]int),
		aliasTemp:  make(map[string]string),
	}
	for _, g := range stmt.GroupBy {
		r := g.String()
		for _, prev := range ab.groupRender {
			if prev == r {
				// Duplicate group renders collide in the engine's
				// name dedup; not worth modelling.
				return nil, false
			}
		}
		ab.groupRender = append(ab.groupRender, r)
	}

	// Each output item must be a whole group expression or a bare
	// aggregate call — the same shapes the single-node aggregate
	// builder accepts.
	type itemRef struct {
		temp string
	}
	itemRefs := make([]itemRef, len(stmt.Items))
	for i, it := range stmt.Items {
		if it.Star {
			return nil, false
		}
		if a, ok := it.Expr.(*query.AggExpr); ok {
			itemRefs[i] = itemRef{temp: fmt.Sprintf("__a%d", ab.registerAgg(a))}
		} else {
			r := it.Expr.String()
			gi := -1
			for j, gr := range ab.groupRender {
				if gr == r {
					gi = j
					break
				}
			}
			if gi < 0 {
				return nil, false
			}
			itemRefs[i] = itemRef{temp: fmt.Sprintf("__g%d", gi)}
		}
		if it.Alias != "" {
			ab.aliasTemp[it.Alias] = itemRefs[i].temp
		}
	}

	having, ok := ab.rewriteFinal(stmt.Having)
	if !ok {
		return nil, false
	}
	var order []query.OrderKey
	for _, k := range stmt.Order {
		e, ok := ab.rewriteFinal(k.Expr)
		if !ok {
			return nil, false
		}
		order = append(order, query.OrderKey{Expr: e, Desc: k.Desc})
	}

	outNames, err := query.OutputColumns(cloneStmt(stmt), query.NewDBCatalog(c.shards[0].DB(), c.tree))
	if err != nil {
		return nil, false
	}
	if len(outNames) != len(stmt.Items) {
		return nil, false
	}

	// The per-shard statement: groups then partials, HAVING/ORDER/
	// LIMIT stripped (they only hold over fully merged groups).
	sp := &query.SelectStmt{From: stmt.From, Limit: -1}
	for _, j := range stmt.Joins {
		sp.Joins = append(sp.Joins, query.JoinClause{Table: j.Table, On: cloneExpr(j.On)})
	}
	sp.Where = cloneExpr(stmt.Where)
	for i, g := range stmt.GroupBy {
		sp.GroupBy = append(sp.GroupBy, cloneExpr(g))
		sp.Items = append(sp.Items, query.SelectItem{Expr: cloneExpr(g), Alias: fmt.Sprintf("__g%d", i)})
	}
	for i, p := range ab.partials {
		sp.Items = append(sp.Items, query.SelectItem{Expr: p, Alias: fmt.Sprintf("__p%d", i)})
	}

	tempCols := make([]string, 0, len(stmt.GroupBy)+len(ab.finals))
	for i := range stmt.GroupBy {
		tempCols = append(tempCols, fmt.Sprintf("__g%d", i))
	}
	for i := range ab.finals {
		tempCols = append(tempCols, fmt.Sprintf("__a%d", i))
	}

	fs := &query.SelectStmt{From: query.TableRef{Name: "gather"}, Where: having, Order: order, Limit: stmt.Limit}
	for i := range stmt.Items {
		fs.Items = append(fs.Items, query.SelectItem{
			Expr:  &query.ColumnRef{Name: itemRefs[i].temp},
			Alias: outNames[i],
		})
	}

	partials := make([]partialDef, len(ab.partials))
	for i, p := range ab.partials {
		partials[i] = partialDef{fn: p.Func}
	}
	return &aggPlan{
		shardStmt: sp,
		groups:    len(stmt.GroupBy),
		partials:  partials,
		finals:    ab.finals,
		finalStmt: fs,
		tempCols:  tempCols,
	}, true
}

// partialState accumulates one partial column across shards.
type partialState struct {
	cnt  int64
	sum  float64
	best store.Value
	seen bool
}

func (ps *partialState) absorb(fn query.AggFunc, v store.Value) {
	switch fn {
	case query.AggCount:
		// Shard counts are INT and never NULL.
		ps.cnt += v.I
	case query.AggSum:
		if !v.IsNull() {
			ps.sum += v.F
			ps.seen = true
		}
	case query.AggMin:
		if !v.IsNull() && (!ps.seen || store.Compare(v, ps.best) < 0) {
			ps.best, ps.seen = v, true
		}
	case query.AggMax:
		if !v.IsNull() && (!ps.seen || store.Compare(v, ps.best) > 0) {
			ps.best, ps.seen = v, true
		}
	}
}

// mergedGroup is one group key with its accumulated partials.
type mergedGroup struct {
	key      []store.Value
	partials []partialState
}

// runPartialAgg scatters the partial statement, merges the shard
// group tables with type-correct re-aggregation, and runs the final
// HAVING/ORDER/LIMIT statement over the merged groups in a temporary
// store.
func (c *Coordinator) runPartialAgg(ctx context.Context, stmt *query.SelectStmt, pl *plan) (*query.Result, error) {
	ap := pl.agg
	results, err := c.scatter(ctx, pl.participate, func(ctx context.Context, s *Shard) (*query.Result, error) {
		return c.runStmt(ctx, s, ap.shardStmt)
	})
	if err != nil {
		return nil, err
	}

	groups := make(map[string]*mergedGroup)
	var order []*mergedGroup
	var keyBuf []byte
	for _, r := range results {
		for _, row := range r.Rows {
			if len(row) != ap.groups+len(ap.partials) {
				return nil, fmt.Errorf("shard: partial row has %d columns, want %d", len(row), ap.groups+len(ap.partials))
			}
			keyBuf = keyBuf[:0]
			for _, v := range row[:ap.groups] {
				keyBuf = store.AppendValue(keyBuf, v)
			}
			g, ok := groups[string(keyBuf)]
			if !ok {
				g = &mergedGroup{
					key:      append([]store.Value(nil), row[:ap.groups]...),
					partials: make([]partialState, len(ap.partials)),
				}
				groups[string(keyBuf)] = g
				order = append(order, g)
			}
			for i, pd := range ap.partials {
				g.partials[i].absorb(pd.fn, row[ap.groups+i])
			}
		}
	}

	rows := make([]store.Row, 0, len(order))
	for _, g := range order {
		row := make(store.Row, 0, len(ap.tempCols))
		row = append(row, g.key...)
		for _, f := range ap.finals {
			row = append(row, finalValue(f, g.partials))
		}
		rows = append(rows, row)
	}

	res, err := c.runFinal(ctx, ap, rows)
	if err != nil {
		// A gather-table kind clash (a group expression mixing INT
		// and FLOAT across groups) is the one shape the temp schema
		// cannot hold; re-run through the exact fallback.
		return c.runFallback(ctx, stmt)
	}
	res.Stats = mergeStats(results)
	res.Stats.RowsReturned = int64(len(res.Rows))
	res.Plan = gatherHeader("partial-agg", len(pl.participate), pl.pruned)
	return res, nil
}

// finalValue reconstructs one aggregate from merged partials with the
// engine's exact type and NULL discipline.
func finalValue(f finalAgg, partials []partialState) store.Value {
	switch f.fn {
	case query.AggCount:
		return store.IntValue(partials[f.a].cnt)
	case query.AggSum:
		if !partials[f.a].seen {
			return store.NullValue()
		}
		return store.FloatValue(partials[f.a].sum)
	case query.AggAvg:
		if partials[f.b].cnt == 0 {
			return store.NullValue()
		}
		return store.FloatValue(partials[f.a].sum / float64(partials[f.b].cnt))
	default: // AggMin, AggMax
		if !partials[f.a].seen {
			return store.NullValue()
		}
		return partials[f.a].best
	}
}

// runFinal loads the merged groups into an in-memory gather table and
// executes the final statement on a local engine.
func (c *Coordinator) runFinal(ctx context.Context, ap *aggPlan, rows []store.Row) (*query.Result, error) {
	cols := make([]store.Column, len(ap.tempCols))
	for i, name := range ap.tempCols {
		kind := store.KindInt
		for _, r := range rows {
			if !r[i].IsNull() {
				kind = r[i].K
				break
			}
		}
		cols[i] = store.Column{Name: name, Kind: kind}
	}
	schema, err := store.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	db, err := store.Open("")
	if err != nil {
		return nil, err
	}
	if _, err := db.CreateTable("gather", schema); err != nil {
		return nil, err
	}
	if err := db.CommitDeltas([]store.TableDelta{{Table: "gather", Inserts: rows}}); err != nil {
		return nil, err
	}
	eng := query.NewEngine(query.NewDBCatalog(db, c.tree), c.opts.QueryOptions)
	return eng.Run(ctx, cloneStmt(ap.finalStmt))
}
