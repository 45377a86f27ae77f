package query

import "drugtree/internal/store"

// Subtree-overlay aggregate reads. A SubtreeOverlay maintains, for one
// table, precomputed per-tree-node aggregates of a metric column over
// every row whose key column names a node inside that subtree (the hot
// "ligand activity per clade" shape). The maintainer updates the
// overlay incrementally from the store's commit-event stream — O(chan-
// ged rows × tree depth) per commit — and versions it with the table's
// commit version, so the optimizer can substitute an O(1) overlay read
// for a scan-and-aggregate exactly when the overlay matches the
// statement's pinned snapshot.

// OverlayAgg is one node's precomputed aggregate state.
type OverlayAgg struct {
	// Rows counts rows in the subtree (COUNT(*)).
	Rows int64
	// Count counts rows whose metric is non-NULL (COUNT(metric)).
	Count int64
	// Sum is the exact sum of the metric over those rows (SUM(metric));
	// AVG(metric) is Sum/Count.
	Sum float64
}

// SubtreeOverlay serves precomputed subtree aggregates. Read must be
// safe for concurrent use.
type SubtreeOverlay interface {
	// Table names the base table the overlay covers.
	Table() string
	// KeyColumn names the string column holding tree-node names.
	KeyColumn() string
	// MetricColumn names the numeric column the overlay sums.
	MetricColumn() string
	// Read returns the aggregate for the named node as of exactly the
	// given table commit version. ok is false when the node is unknown
	// or the overlay's version differs from the requested one (the
	// caller then falls back to scanning its snapshot).
	Read(node string, version int64) (OverlayAgg, bool)
}

// OverlayCatalog is implemented by catalogs that can serve a subtree
// overlay (DBCatalog does, when one is wired).
type OverlayCatalog interface {
	Overlay() SubtreeOverlay
}

// tryOverlayRead recognizes the overlay-answerable aggregate shape —
// a global (no GROUP BY) aggregate over a scan of the overlay's table
// whose only predicate is one WITHIN_SUBTREE conjunct on the key
// column, with every aggregate function derivable from (Rows, Count,
// Sum) — and answers it from the overlay without touching a row. The
// rewrite fires only when the statement holds a pinned snapshot and
// the overlay is synchronized at exactly the pinned version, so an
// overlay read can never mix versions with the statement's other
// scans. EXPLAIN renders the leaf as "OverlayRead table@node
// [version=V rows=N]".
func tryOverlayRead(n *AggNode, ec *execCtx, depth int) (batchIterator, bool) {
	if !ec.opts.UseIndexes || ec.snap == nil || len(n.GroupBy) != 0 || len(n.Aggs) == 0 {
		return nil, false
	}
	oc, ok := ec.cat.(OverlayCatalog)
	if !ok {
		return nil, false
	}
	ov := oc.Overlay()
	if ov == nil {
		return nil, false
	}
	scan, ok := n.Input.(*ScanNode)
	if !ok || scan.Table != ov.Table() || len(scan.Conjuncts) != 1 {
		return nil, false
	}
	sub, ok := scan.Conjuncts[0].(*SubtreeExpr)
	if !ok || sub.Column.Name != ov.KeyColumn() {
		return nil, false
	}
	if sub.Column.Qualifier != "" && sub.Column.Qualifier != scan.Alias {
		return nil, false
	}
	metric := ov.MetricColumn()
	for _, a := range n.Aggs {
		if a.Distinct {
			return nil, false
		}
		if a.Star {
			if a.Func != AggCount {
				return nil, false
			}
			continue
		}
		switch a.Func {
		case AggCount, AggSum, AggAvg:
		default:
			return nil, false // MIN/MAX are not derivable from sums
		}
		col, ok := a.Arg.(*ColumnRef)
		if !ok || col.Name != metric {
			return nil, false
		}
		if col.Qualifier != "" && col.Qualifier != scan.Alias {
			return nil, false
		}
	}
	ver, ok := ec.snap.Version(scan.Table)
	if !ok {
		return nil, false
	}
	agg, ok := ov.Read(sub.Node, ver)
	if !ok {
		return nil, false // overlay out of sync with the snapshot
	}
	op := ec.note(depth, "OverlayRead %s@%s [version=%d rows=%d]", scan.Table, sub.Node, ver, agg.Rows)
	cb := &store.ColBatch{Cols: make([]store.Col, len(n.Aggs)), Rows: 1}
	for i, a := range n.Aggs {
		var v store.Value
		switch {
		case a.Star:
			v = store.IntValue(agg.Rows)
		case a.Func == AggCount:
			v = store.IntValue(agg.Count)
		case agg.Count == 0:
			// SUM and AVG over zero non-NULL inputs are NULL — the same
			// aggState semantics the scan path produces.
		case a.Func == AggSum:
			v = store.FloatValue(agg.Sum)
		default: // AggAvg
			v = store.FloatValue(agg.Sum / float64(agg.Count))
		}
		col := store.NewCol(v.K, 1)
		col.Append(v)
		cb.Cols[i] = *col
	}
	return &vecScan{batches: batchesOf(cb), cancel: canceller{ctx: ec.ctx}, op: op}, true
}
