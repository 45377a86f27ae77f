package query

import (
	"container/heap"

	"drugtree/internal/store"
)

// topKIter implements ORDER BY ... LIMIT k with a bounded heap
// instead of a full sort: O(n log k) time and O(k) memory. The
// physical planner substitutes it whenever a LimitNode sits directly
// on a SortNode.
type topKIter struct {
	in     iterator
	keys   []*boundExpr
	descs  []bool
	k      int
	cancel canceller
	op     *OpStats

	out []store.Row
	pos int
	run bool
}

// keyedRow carries a row with its precomputed sort keys.
type keyedRow struct {
	row  store.Row
	keys []store.Value
}

// rowHeap keeps the *worst* row (per the requested order) at the top
// so it can be displaced by better rows.
type rowHeap struct {
	rows  []keyedRow
	descs []bool
}

func (h *rowHeap) Len() int { return len(h.rows) }

// less orders a before b per the requested ORDER BY.
func (h *rowHeap) ordered(a, b keyedRow) bool {
	for i := range a.keys {
		c := store.Compare(a.keys[i], b.keys[i])
		if c == 0 {
			continue
		}
		if h.descs[i] {
			return c > 0
		}
		return c < 0
	}
	return false
}

// Less puts the worst element at the heap top (max-heap by order).
func (h *rowHeap) Less(i, j int) bool { return h.ordered(h.rows[j], h.rows[i]) }
func (h *rowHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *rowHeap) Push(x any)         { h.rows = append(h.rows, x.(keyedRow)) }
func (h *rowHeap) Pop() any {
	old := h.rows
	n := len(old)
	it := old[n-1]
	h.rows = old[:n-1]
	return it
}

func (t *topKIter) Next() (store.Row, bool, error) {
	if !t.run {
		if err := t.drain(); err != nil {
			return nil, false, err
		}
		t.run = true
	}
	if t.pos >= len(t.out) {
		return nil, false, nil
	}
	r := t.out[t.pos]
	t.pos++
	t.op.addOut(1)
	return r, true, nil
}

func (t *topKIter) drain() error {
	h := &rowHeap{descs: t.descs}
	heap.Init(h)
	for {
		if err := t.cancel.check(); err != nil {
			return err
		}
		r, ok, err := t.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		t.op.addIn(1)
		ks := make([]store.Value, len(t.keys))
		for i, k := range t.keys {
			v, err := k.eval(r)
			if err != nil {
				return err
			}
			ks[i] = v
		}
		kr := keyedRow{row: r, keys: ks}
		if h.Len() < t.k {
			heap.Push(h, kr)
			continue
		}
		// Displace the current worst when the new row orders before
		// it.
		if h.ordered(kr, h.rows[0]) {
			h.rows[0] = kr
			heap.Fix(h, 0)
		}
	}
	// Pop yields worst-first; fill back-to-front.
	t.out = make([]store.Row, h.Len())
	for i := len(t.out) - 1; i >= 0; i-- {
		t.out[i] = heap.Pop(h).(keyedRow).row
	}
	return nil
}

// scanTopK tells a scan that ORDER BY column [DESC] LIMIT limit sits
// directly above it, so an index range scan on that column may walk the
// B+-tree in sort order and stop after limit qualifying rows instead
// of handing the whole range to the heap.
type scanTopK struct {
	column string
	desc   bool
	limit  int
}

// pushTopK finds every Limit over a single-column Sort (the shapes the
// physical planner fuses into TopK: directly, or through the SELECT
// list's projection) whose input reaches a scan through projections
// alone, the sort key a bare column all the way down, and records the
// order and limit on that scan. A projection neither drops, adds nor
// reorders rows, so the first limit rows of an in-order walk are a
// valid top-k. The scan honors the
// note only if it ends up on an index range over that column; the TopK
// operator stays in the plan either way and sees at most limit rows.
func pushTopK(plan LogicalPlan) {
	if lim, ok := plan.(*LimitNode); ok && lim.N > 0 {
		in := lim.Input
		if pj, ok := in.(*ProjectNode); ok {
			in = pj.Input
		}
		if srt, ok := in.(*SortNode); ok && len(srt.Keys) == 1 {
			noteTopK(srt, lim.N)
		}
	}
	for _, c := range plan.Children() {
		pushTopK(c)
	}
}

func noteTopK(srt *SortNode, limit int) {
	ref, ok := srt.Keys[0].Expr.(*ColumnRef)
	if !ok {
		return
	}
	in := srt.Input
	for {
		idx, err := in.Schema().resolve(ref)
		if err != nil {
			return
		}
		switch n := in.(type) {
		case *ProjectNode:
			if ref, ok = n.Exprs[idx].(*ColumnRef); !ok {
				return
			}
			in = n.Input
		case *ScanNode:
			n.topK = &scanTopK{column: n.schema.cols[idx].Name, desc: srt.Keys[0].Desc, limit: limit}
			return
		default:
			return
		}
	}
}
