package query

import (
	"drugtree/internal/store"
)

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sum   float64
	min   store.Value
	max   store.Value
	seen  bool
}

func (s *aggState) add(fn AggFunc, v store.Value) {
	if v.IsNull() {
		return
	}
	s.count++
	if v.Numeric() {
		s.sum += v.AsFloat()
	}
	if !s.seen {
		s.min, s.max = v, v
		s.seen = true
		return
	}
	if store.Compare(v, s.min) < 0 {
		s.min = v
	}
	if store.Compare(v, s.max) > 0 {
		s.max = v
	}
}

// merge folds another partial state into s (plain aggregates only;
// DISTINCT partials replay value-by-value through distinctSet).
func (s *aggState) merge(o *aggState) {
	s.count += o.count
	s.sum += o.sum
	if !o.seen {
		return
	}
	if !s.seen {
		s.min, s.max, s.seen = o.min, o.max, true
		return
	}
	if store.Compare(o.min, s.min) < 0 {
		s.min = o.min
	}
	if store.Compare(o.max, s.max) > 0 {
		s.max = o.max
	}
}

func (s *aggState) result(fn AggFunc) store.Value {
	switch fn {
	case AggCount:
		return store.IntValue(s.count)
	case AggSum:
		if s.count == 0 {
			return store.NullValue()
		}
		return store.FloatValue(s.sum)
	case AggAvg:
		if s.count == 0 {
			return store.NullValue()
		}
		return store.FloatValue(s.sum / float64(s.count))
	case AggMin:
		if !s.seen {
			return store.NullValue()
		}
		return s.min
	case AggMax:
		if !s.seen {
			return store.NullValue()
		}
		return s.max
	}
	return store.NullValue()
}

// distinctSet dedups a DISTINCT aggregate's inputs — hash buckets of
// values compared with store.Equal, since distinct values can share a
// hash — remembering values in first-seen order so partial sets merge
// with the same semantics the serial accumulation has.
type distinctSet struct {
	seen map[uint64][]store.Value
	vals []store.Value
}

func newDistinctSet() *distinctSet {
	return &distinctSet{seen: make(map[uint64][]store.Value)}
}

// insert reports whether v was new.
func (d *distinctSet) insert(v store.Value) bool {
	h := v.Hash()
	for _, s := range d.seen[h] {
		if store.Equal(s, v) {
			return false
		}
	}
	d.seen[h] = append(d.seen[h], v)
	d.vals = append(d.vals, v)
	return true
}

// groupEntry pairs the group's key values with per-aggregate states.
type groupEntry struct {
	keys   []store.Value
	states []aggState
	stars  int64
	// distinct[i] dedups inputs for DISTINCT aggregates; nil for
	// plain aggregates.
	distinct []*distinctSet
}

// aggTable is one (partial or final) aggregation hash table with
// deterministic first-seen group order.
type aggTable struct {
	aggs  []*AggExpr
	table map[string]*groupEntry
	order []string
}

func newAggTable(aggs []*AggExpr) *aggTable {
	return &aggTable{aggs: aggs, table: make(map[string]*groupEntry)}
}

// addValues accumulates one input row whose group keys and aggregate
// arguments are already evaluated (vecAgg batch-evaluates both). keys
// is retained by the table on first sight of a group; callers must pass
// a fresh slice per row. argv entries for star aggregates are ignored.
func (t *aggTable) addValues(keys []store.Value, argv []store.Value) {
	keyBuf := make([]byte, 0, 32)
	for _, v := range keys {
		keyBuf = store.AppendValue(keyBuf, v)
	}
	k := string(keyBuf)
	e, found := t.table[k]
	if !found {
		e = &groupEntry{
			keys:     keys,
			states:   make([]aggState, len(t.aggs)),
			distinct: make([]*distinctSet, len(t.aggs)),
		}
		for i, agg := range t.aggs {
			if agg.Distinct {
				e.distinct[i] = newDistinctSet()
			}
		}
		t.table[k] = e
		t.order = append(t.order, k)
	}
	for i, agg := range t.aggs {
		if agg.Star {
			e.stars++
			continue
		}
		v := argv[i]
		if agg.Distinct {
			if v.IsNull() || !e.distinct[i].insert(v) {
				continue
			}
		}
		e.states[i].add(agg.Func, v)
	}
}

// merge folds another partial table into t. Partials built over
// contiguous input chunks merged in chunk order reproduce the global
// first-seen group order: every row of chunk w precedes every row of
// chunk w+1 in the original input.
func (t *aggTable) merge(o *aggTable) {
	for _, k := range o.order {
		oe := o.table[k]
		e, found := t.table[k]
		if !found {
			t.table[k] = oe
			t.order = append(t.order, k)
			continue
		}
		e.stars += oe.stars
		for i, agg := range t.aggs {
			if agg.Star {
				continue
			}
			if agg.Distinct {
				// Replay the other partial's distinct values in
				// first-seen order; cross-chunk duplicates drop out.
				for _, v := range oe.distinct[i].vals {
					if e.distinct[i].insert(v) {
						e.states[i].add(agg.Func, v)
					}
				}
				continue
			}
			e.states[i].merge(&oe.states[i])
		}
	}
}

// output renders the final one-row-per-group result — group keys, then
// aggregates — as generic columns (an aggregate's kind is known only
// from its inputs). groups is the number of group keys.
func (t *aggTable) output(groups int) *store.ColBatch {
	cb := &store.ColBatch{Cols: make([]store.Col, groups+len(t.aggs)), Rows: len(t.order)}
	for c := range cb.Cols {
		cb.Cols[c] = *store.NewCol(store.KindNull, len(t.order))
	}
	for _, k := range t.order {
		e := t.table[k]
		for c, v := range e.keys {
			cb.Cols[c].Append(v)
		}
		for i, agg := range t.aggs {
			v := store.IntValue(e.stars)
			if !agg.Star {
				v = e.states[i].result(agg.Func)
			}
			cb.Cols[groups+i].Append(v)
		}
	}
	return cb
}
