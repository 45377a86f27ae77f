package query

import (
	"cmp"

	"drugtree/internal/store"
)

// aggTable is one (partial or final) aggregation state: a grouping
// hashTab numbers the groups in first-seen order, and every aggregate
// keeps its state as typed vectors indexed by that group id — nothing
// is allocated per input row or per group beyond the vectors' growth.
type aggTable struct {
	aggs      []*AggExpr
	groups    *hashTab // nil without GROUP BY: every row is group 0
	n         int      // groups so far
	countRows bool     // some aggregate is COUNT(*)
	stars     []int64  // rows per group, when countRows
	states    []aggVec // one per aggregate; unused for star aggregates
	// distinct[i] holds the (group id, value) pairs a DISTINCT
	// aggregate has folded; nil for plain aggregates.
	distinct []*hashTab

	// Per-batch scratch.
	cols   []*store.Col // the batch's evaluated group keys, then arguments
	gids   []int32      // the batch's group ids (all zeros without GROUP BY)
	gidCol *store.Col   // a DISTINCT table's key columns, cell k the
	dval   store.Col    // (group id, value) pair of the k-th folded row
	dsel   []int        // the rows, and their group ids, a DISTINCT
	dgid   []int32      // aggregate has not folded yet
}

// aggVec is one aggregate's state across groups: the count of non-NULL
// inputs for COUNT/SUM/AVG, their sum for SUM/AVG, the running extreme
// for MIN/MAX (a column of the argument's kind, created by the first
// fold; NULL until a value arrives).
type aggVec struct {
	count []int64
	sum   []float64
	ext   *store.Col
}

func newAggTable(aggs []*AggExpr, grouped bool) *aggTable {
	t := &aggTable{aggs: aggs, states: make([]aggVec, len(aggs)), distinct: make([]*hashTab, len(aggs))}
	if grouped {
		t.groups = newHashTab(true, 0)
	}
	for i, a := range aggs {
		if a.Star {
			t.countRows = true
		} else if a.Distinct {
			t.distinct[i] = newHashTab(false, 0)
		}
	}
	return t
}

// grow extends every state vector to n groups.
func (t *aggTable) grow(n int) {
	if n <= t.n {
		return
	}
	add := n - t.n
	t.n = n
	if t.countRows {
		t.stars = append(t.stars, make([]int64, add)...)
	}
	for i, a := range t.aggs {
		if a.Star {
			continue
		}
		s := &t.states[i]
		switch a.Func {
		case AggMin, AggMax:
			for s.ext != nil && s.ext.Len() < n {
				s.ext.Append(store.NullValue())
			}
		case AggSum, AggAvg:
			s.sum = append(s.sum, make([]float64, add)...)
			fallthrough
		default:
			s.count = append(s.count, make([]int64, add)...)
		}
	}
}

// accum folds the rows sel of one batch into the table: gcols are the
// evaluated group keys, acols the evaluated arguments (nil for star
// aggregates), both aligned with the batch's rows.
func (t *aggTable) accum(gcols, acols []*store.Col, sel []int) {
	if len(sel) == 0 {
		return
	}
	t.fold(acols, sel, t.groupIDs(gcols, sel))
}

// fold adds the argument cells acols at rows sel to the groups gids
// (aligned with sel). A row may be listed more than once — a
// group-join's probe row matched by several build rows — and then
// counts once per listing.
func (t *aggTable) fold(acols []*store.Col, sel []int, gids []int32) {
	if t.countRows {
		for _, g := range gids {
			t.stars[g]++
		}
	}
	for i, a := range t.aggs {
		if a.Star {
			continue
		}
		fsel, fgid := sel, gids
		if d := t.distinct[i]; d != nil {
			fsel, fgid = t.newPairs(d, acols[i], sel, gids)
		}
		t.states[i].fold(a.Func, acols[i], fsel, fgid, t.n)
	}
}

// newPairs inserts the (group, value) pairs of a DISTINCT aggregate's
// rows sel into its table d and returns the rows, and groups, whose
// pair is new: only those are folded. The pairs are laid out by
// position in sel, since a row may be listed under several groups.
func (t *aggTable) newPairs(d *hashTab, col *store.Col, sel []int, gids []int32) ([]int, []int32) {
	if t.gidCol == nil || t.gidCol.Len() < len(sel) {
		t.gidCol = store.NewDenseCol(store.KindInt, max(len(sel), vecBatchSize))
	}
	v := &t.dval
	*v = store.Col{Kind: col.Kind, Null: v.Null[:0], Int: v.Int[:0], Float: v.Float[:0], Str: v.Str[:0], Vals: v.Vals[:0]}
	for k, r := range sel {
		t.gidCol.SetInt(k, int64(gids[k]))
		v.AppendFrom(col, r)
	}
	keys := []*store.Col{t.gidCol, v}
	t.dsel, t.dgid = t.dsel[:0], t.dgid[:0]
	for k, r := range sel {
		if _, added := d.insert(keys, k); added {
			t.dsel, t.dgid = append(t.dsel, r), append(t.dgid, gids[k])
		}
	}
	return t.dsel, t.dgid
}

// groupIDs probes one batch's group keys into the group table — new
// keys become new groups — and returns the rows' group ids, aligned
// with sel, with every state vector grown to cover them.
func (t *aggTable) groupIDs(gcols []*store.Col, sel []int) []int32 {
	if t.groups == nil {
		t.grow(1)
		for len(t.gids) < len(sel) {
			t.gids = append(t.gids, 0)
		}
		return t.gids[:len(sel)]
	}
	t.gids = t.groups.insertBatch(gcols, sel, t.gids)
	t.grow(t.groups.len())
	return t.gids
}

// fold accumulates the non-NULL cells of col at rows sel into the
// groups gids (aligned with sel) of n.
func (s *aggVec) fold(fn AggFunc, col *store.Col, sel []int, gids []int32, n int) {
	switch fn {
	case AggMin, AggMax:
		if s.ext == nil {
			s.ext = store.NewDenseCol(col.Kind, n)
		}
		for k, r := range sel {
			if col.Null[r] {
				continue
			}
			if g := int(gids[k]); s.ext.Null[g] || extremer(fn, col, r, s.ext, g) {
				s.ext.SetValue(g, col.Value(r))
			}
		}
	case AggCount:
		for k, r := range sel {
			if !col.Null[r] {
				s.count[gids[k]]++
			}
		}
	default: // SUM, AVG: non-numeric cells count but add nothing
		switch col.Kind {
		case store.KindFloat:
			for k, r := range sel {
				if !col.Null[r] {
					s.count[gids[k]]++
					s.sum[gids[k]] += col.Float[r]
				}
			}
		case store.KindInt:
			for k, r := range sel {
				if !col.Null[r] {
					s.count[gids[k]]++
					s.sum[gids[k]] += float64(col.Int[r])
				}
			}
		default:
			for k, r := range sel {
				if v := col.Value(r); !v.IsNull() {
					s.count[gids[k]]++
					if v.Numeric() {
						s.sum[gids[k]] += v.AsFloat()
					}
				}
			}
		}
	}
}

// extremer reports whether cell i of a is strictly beyond cell j of b
// in fn's direction (below for MIN, above for MAX), by store.Compare's
// order; neither is NULL.
func extremer(fn AggFunc, a *store.Col, i int, b *store.Col, j int) bool {
	var c int
	switch {
	case a.Kind == store.KindFloat && b.Kind == store.KindFloat:
		c = cmp.Compare(a.Float[i], b.Float[j])
	case a.Kind == store.KindInt && b.Kind == store.KindInt:
		c = cmp.Compare(a.Int[i], b.Int[j])
	case a.Kind == store.KindString && b.Kind == store.KindString:
		c = cmp.Compare(a.Str[i], b.Str[j])
	default:
		c = store.Compare(a.Value(i), b.Value(j))
	}
	if fn == AggMin {
		return c < 0
	}
	return c > 0
}

// merge folds another partial table into t by re-probing o's group keys
// into t's table. Partials built over contiguous input chunks merged in
// chunk order reproduce the global first-seen group order: every row of
// chunk w precedes every row of chunk w+1 in the original input.
func (t *aggTable) merge(o *aggTable) {
	if o.n == 0 {
		return
	}
	// to[g] is the group of t that o's group g lands in.
	to := make([]int32, o.n)
	if t.groups != nil {
		keys := make([]*store.Col, len(o.groups.keys))
		for c := range keys {
			keys[c] = &o.groups.keys[c]
		}
		for g := range to {
			to[g], _ = t.groups.insert(keys, g)
		}
		t.grow(t.groups.len())
	} else {
		t.grow(1)
	}
	for g, n := range o.stars {
		t.stars[to[g]] += n
	}
	for i, a := range t.aggs {
		if a.Star {
			continue
		}
		s, os := &t.states[i], &o.states[i]
		if d := t.distinct[i]; d != nil {
			// Replay the other partial's distinct (group, value) pairs
			// in first-seen order under t's group ids; pairs t has seen
			// drop out.
			od := o.distinct[i]
			if od.len() == 0 {
				continue
			}
			mapped := store.NewDenseCol(store.KindInt, od.len())
			for e, g := range od.keys[0].Int {
				mapped.SetInt(e, int64(to[g]))
			}
			keys := []*store.Col{mapped, &od.keys[1]}
			var fsel []int
			var fgid []int32
			for e := 0; e < od.len(); e++ {
				if _, added := d.insert(keys, e); added {
					fsel, fgid = append(fsel, e), append(fgid, int32(mapped.Int[e]))
				}
			}
			s.fold(a.Func, keys[1], fsel, fgid, t.n)
			continue
		}
		for g, c := range os.count {
			s.count[to[g]] += c
		}
		for g, x := range os.sum {
			s.sum[to[g]] += x
		}
		if os.ext != nil {
			// The partial's extremes are inputs like any other.
			s.fold(a.Func, os.ext, identity(o.n), to, t.n)
		}
	}
}

// output renders the final one-row-per-group result — group keys, then
// aggregates — as typed columns: the group table's key columns as they
// stand, counts as INT, sums and averages as FLOAT (NULL over no
// input), extremes in their argument's kind.
func (t *aggTable) output() *store.ColBatch {
	cb := &store.ColBatch{Rows: t.n}
	if t.groups != nil && t.n > 0 {
		cb.Cols = append(cb.Cols, t.groups.keys...)
	}
	for i, a := range t.aggs {
		s := &t.states[i]
		col := store.Col{Kind: store.KindInt, Null: make([]bool, t.n)}
		switch {
		case a.Star:
			col.Int = t.stars
		case a.Func == AggCount:
			col.Int = s.count
		case a.Func == AggSum || a.Func == AggAvg:
			col.Kind, col.Float = store.KindFloat, s.sum
			for g, c := range s.count {
				if col.Null[g] = c == 0; a.Func == AggAvg && c > 0 {
					col.Float[g] /= float64(c)
				}
			}
		case s.ext == nil: // MIN/MAX that never saw a value
			col = *store.NewDenseCol(store.KindNull, t.n)
		default:
			col = *s.ext
		}
		cb.Cols = append(cb.Cols, col)
	}
	return cb
}
