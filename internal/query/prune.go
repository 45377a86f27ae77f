package query

// Projection pruning: narrow the rows flowing out of scans to the
// columns the rest of the plan actually touches. Joins copy and hash
// rows, so dropping dead columns early shrinks every intermediate.

// colKey identifies a column requirement by qualifier and name.
type colKey struct {
	qualifier string
	name      string
}

// requiredFrom accumulates the columns an expression needs.
func requiredFrom(e Expr, into map[colKey]bool) {
	for _, c := range exprColumns(e) {
		into[colKey{c.Qualifier, c.Name}] = true
	}
	// Tree/similarity predicates reference sibling columns the
	// rewrites may introduce later; keep end_pre when its relation is
	// touched by an AncestorExpr.
	walkExpr(e, func(x Expr) {
		if a, ok := x.(*AncestorExpr); ok {
			into[colKey{a.Column.Qualifier, "end_pre"}] = true
		}
	})
}

// pruneColumns rewrites the plan so scans and joins emit only the
// columns the operators above them read (ScanNode.proj, JoinNode.proj):
// the store copies nothing else out, and a join materializes neither
// its keys nor what only its residual reads unless the parent asks.
// The requirement starts at the first projection or aggregate from the
// root: above it sit only a sort, a limit or HAVING's filter.
func pruneColumns(plan LogicalPlan) LogicalPlan {
	switch n := plan.(type) {
	case *ProjectNode:
		need := map[colKey]bool{}
		for _, e := range n.Exprs {
			requiredFrom(e, need)
		}
		out := *n
		out.Input = pruneInput(n.Input, need)
		return &out
	case *AggNode:
		need := map[colKey]bool{}
		for _, g := range n.GroupBy {
			requiredFrom(g, need)
		}
		for _, a := range n.Aggs {
			if !a.Star {
				requiredFrom(a.Arg, need)
			}
		}
		out := *n
		out.Input = pruneInput(n.Input, need)
		return &out
	}
	return mapInputs(plan, pruneColumns)
}

// pruneInput pushes a requirement set down through filters, sorts and
// joins to the scans: each one's inputs carry what it emits and what it
// reads itself.
func pruneInput(plan LogicalPlan, need map[colKey]bool) LogicalPlan {
	switch n := plan.(type) {
	case *FilterNode:
		inner := copyNeed(need)
		requiredFrom(n.Pred, inner)
		return mapInputs(n, func(p LogicalPlan) LogicalPlan { return pruneInput(p, inner) })
	case *SortNode:
		inner := copyNeed(need)
		for _, k := range n.Keys {
			requiredFrom(k.Expr, inner)
		}
		return mapInputs(n, func(p LogicalPlan) LogicalPlan { return pruneInput(p, inner) })
	case *JoinNode:
		inner := copyNeed(need)
		requiredFrom(n.Cond, inner)
		out := mapInputs(n, func(p LogicalPlan) LogicalPlan { return pruneInput(p, inner) }).(*JoinNode)
		// The join itself emits only what its parent reads.
		full := out.Left.Schema().concat(out.Right.Schema())
		out.schema, out.proj = full, nil
		if keep := neededCols(full, need); len(keep) < full.Len() {
			out.proj = keep
			out.schema = &planSchema{}
			for _, i := range keep {
				out.schema.cols = append(out.schema.cols, full.cols[i])
			}
		}
		return out
	case *ScanNode:
		return pruneScan(n, need)
	}
	return plan
}

// neededCols lists the columns of s a requirement set names, in schema
// order: a column is required when an unqualified or alias-qualified
// requirement resolves to it. The list is never nil: an empty one is a
// projection onto no columns, not "no projection".
func neededCols(s *planSchema, need map[colKey]bool) []int {
	keep := []int{}
	for i, c := range s.cols {
		if need[colKey{"", c.Name}] || need[colKey{c.Qualifier, c.Name}] {
			keep = append(keep, i)
		}
	}
	return keep
}

func copyNeed(need map[colKey]bool) map[colKey]bool {
	out := make(map[colKey]bool, len(need))
	for k := range need {
		out[k] = true
	}
	return out
}

// pruneScan narrows a scan to the required columns. The scan's own
// conjuncts still see the whole row: they bind against the table
// schema and run before the projection.
func pruneScan(n *ScanNode, need map[colKey]bool) LogicalPlan {
	keep := neededCols(n.base, need)
	if len(keep) == len(n.base.cols) || len(keep) == 0 {
		return n // nothing to prune, or a degenerate requirement set
	}
	out := *n
	out.proj = keep
	out.schema = &planSchema{}
	for _, i := range keep {
		out.schema.cols = append(out.schema.cols, n.base.cols[i])
	}
	return &out
}
