package query

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"drugtree/internal/store"
)

// Reference executor: the differential baseline. It interprets the
// *unoptimised* logical plan (BuildLogical's output) operator at a time
// over []store.Row, with nested-loop joins, a linear group table and
// sort.SliceStable — no optimizer, no access paths, no batches, no
// hashing, no parallelism. Its expressions run on the test-only row
// compiler (bind / boundExpr, rowbind_test.go), row by row, so it
// shares no evaluation code with production — only the parser,
// BuildLogical, name resolution and subquery execution — and a
// disagreement with an engine is a bug in the batch expression
// compiler, the optimizer or the physical operators (or in this file).

// refQuery runs src on the reference executor at a snapshot it pins.
func refQuery(cat Catalog, src string) (*Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	snap := cat.PinSnapshot()
	defer snap.Release()
	return refRunAt(cat, stmt, snap)
}

// refRunAt runs a statement at a pinned snapshot.
func refRunAt(cat Catalog, stmt *SelectStmt, snap *store.SnapshotHandle) (*Result, error) {
	plan, err := BuildLogical(stmt, cat)
	if err != nil {
		return nil, err
	}
	// Subqueries inside bind run on the naive serial engine.
	r := &refExec{ec: &execCtx{ctx: context.Background(), cat: cat, snap: snap, opts: NaiveOptions(), stats: &ExecStats{}}}
	rows, err := r.run(plan)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: outputColumns(plan), Rows: rows}, nil
}

type refExec struct{ ec *execCtx }

func (r *refExec) run(p LogicalPlan) ([]store.Row, error) {
	ins := make([][]store.Row, len(p.Children()))
	for i, c := range p.Children() {
		var err error
		if ins[i], err = r.run(c); err != nil {
			return nil, err
		}
	}
	switch n := p.(type) {
	case *ScanNode:
		if len(n.Conjuncts) > 0 || n.proj != nil {
			return nil, fmt.Errorf("refexec: optimised scan %s", n.Table)
		}
		tv, err := r.ec.view(n.Table)
		if err != nil {
			return nil, err
		}
		var rows []store.Row
		tv.Scan(func(_ int64, r store.Row) bool {
			rows = append(rows, slices.Clone(r))
			return true
		})
		return rows, nil
	case *FilterNode:
		return r.filter(n.Pred, n.Input.Schema(), len(ins[0]), func(i int) store.Row { return ins[0][i] })
	case *JoinNode:
		pair, nr := make(store.Row, n.schema.Len()), len(ins[1])
		return r.filter(n.Cond, n.schema, len(ins[0])*nr, func(i int) store.Row {
			copy(pair[copy(pair, ins[0][i/nr]):], ins[1][i%nr])
			return pair
		})
	case *ProjectNode:
		return r.evalRows(n.Exprs, n.Input.Schema(), ins[0])
	case *AggNode:
		return r.aggregate(n, ins[0])
	case *SortNode:
		exprs := make([]Expr, len(n.Keys))
		for i, k := range n.Keys {
			exprs[i] = k.Expr
		}
		keys, err := r.evalRows(exprs, n.Input.Schema(), ins[0])
		if err != nil {
			return nil, err
		}
		perm := make([]int, len(ins[0]))
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool {
			for k, key := range n.Keys {
				if c := store.Compare(keys[perm[a]][k], keys[perm[b]][k]); c != 0 {
					return (c < 0) != key.Desc
				}
			}
			return false
		})
		out := make([]store.Row, len(perm))
		for i, p := range perm {
			out[i] = ins[0][p]
		}
		return out, nil
	case *LimitNode:
		return ins[0][:min(n.N, len(ins[0]))], nil
	}
	return nil, fmt.Errorf("refexec: cannot execute %T", p)
}

// evalRows evaluates exprs over every row, row-major.
func (r *refExec) evalRows(exprs []Expr, schema *planSchema, in []store.Row) ([]store.Row, error) {
	bound := make([]*boundExpr, len(exprs))
	for i, e := range exprs {
		var err error
		if bound[i], err = bind(e, r.ec.env(schema)); err != nil {
			return nil, err
		}
	}
	out := make([]store.Row, len(in))
	for i, row := range in {
		out[i] = make(store.Row, len(bound))
		for c, be := range bound {
			var err error
			if out[i][c], err = be.eval(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// filter keeps a copy of each of the n rows at(i) (which may reuse one
// scratch row) that pred accepts.
func (r *refExec) filter(pred Expr, schema *planSchema, n int, at func(i int) store.Row) ([]store.Row, error) {
	be, err := bind(pred, r.ec.env(schema))
	if err != nil {
		return nil, err
	}
	var out []store.Row
	for i := 0; i < n; i++ {
		row := at(i)
		ok, err := be.evalBool(row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, slices.Clone(row))
		}
	}
	return out, nil
}

// aggregate groups by linear search in first-seen order — group
// identity is same kind and equal, so NULLs group together and 1 and
// 1.0 do not — and computes every aggregate from the group's collected
// argument values.
func (r *refExec) aggregate(n *AggNode, in []store.Row) ([]store.Row, error) {
	keys, err := r.evalRows(n.GroupBy, n.Input.Schema(), in)
	if err != nil {
		return nil, err
	}
	argExprs := make([]Expr, len(n.Aggs))
	for i, a := range n.Aggs {
		argExprs[i] = a.Arg
		if a.Star {
			argExprs[i] = &Literal{Val: store.NullValue()}
		}
	}
	args, err := r.evalRows(argExprs, n.Input.Schema(), in)
	if err != nil {
		return nil, err
	}
	type group struct {
		keys store.Row
		rows int
		vals [][]store.Value // per aggregate: its non-NULL (DISTINCT: deduplicated) arguments
	}
	var table []*group
	if len(n.GroupBy) == 0 {
		table = append(table, &group{vals: make([][]store.Value, len(n.Aggs))})
	}
	for ri := range in {
		var g *group
	search:
		for _, cand := range table {
			for k, v := range keys[ri] {
				if cand.keys[k].K != v.K || !store.Equal(cand.keys[k], v) {
					continue search
				}
			}
			g = cand
			break
		}
		if g == nil {
			g = &group{keys: keys[ri], vals: make([][]store.Value, len(n.Aggs))}
			table = append(table, g)
		}
		g.rows++
	arg:
		for i, a := range n.Aggs {
			v := args[ri][i]
			if v.IsNull() {
				continue
			}
			for _, seen := range g.vals[i] {
				if a.Distinct && store.Equal(seen, v) {
					continue arg
				}
			}
			g.vals[i] = append(g.vals[i], v)
		}
	}
	out := make([]store.Row, len(table))
	for gi, g := range table {
		out[gi] = append(store.Row(nil), g.keys...)
		for i, a := range n.Aggs {
			out[gi] = append(out[gi], refAggregate(a, g.rows, g.vals[i]))
		}
	}
	return out, nil
}

func refAggregate(a *AggExpr, rows int, vals []store.Value) store.Value {
	switch {
	case a.Star:
		return store.IntValue(int64(rows))
	case a.Func == AggCount:
		return store.IntValue(int64(len(vals)))
	case len(vals) == 0:
		return store.NullValue()
	}
	sum, best := 0.0, vals[0]
	for _, v := range vals {
		if v.Numeric() {
			sum += v.AsFloat()
		}
		if c := store.Compare(v, best); (a.Func == AggMin && c < 0) || (a.Func == AggMax && c > 0) {
			best = v
		}
	}
	switch a.Func {
	case AggSum:
		return store.FloatValue(sum)
	case AggAvg:
		return store.FloatValue(sum / float64(len(vals)))
	}
	return best
}
