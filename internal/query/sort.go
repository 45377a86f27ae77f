package query

import (
	"sort"

	"drugtree/internal/store"
)

// Sorting over batches. Both operators drain their input, evaluate the
// ORDER BY keys once per batch into key columns, and order references
// to the drained rows — no row is copied until the output batches are
// gathered. The order is total: rows with equal keys keep their input
// order, so a top-k is exactly the first k rows of the full sort and a
// parallel run (whose operators all preserve input order) sorts
// exactly as a serial one.

// sortKeys are a sort's compiled key expressions and directions, and
// the dictionary a coded key decodes through: codes are in first-seen
// order, so names sort as strings. The rows' other columns travel as
// they are, coded ones as codes.
type sortKeys struct {
	exprs []*vecExpr
	descs []bool
	dict  *store.Dict
}

// bindSortKeys binds a sort's key expressions against its input.
func bindSortKeys(n *SortNode, ec *execCtx) (sortKeys, error) {
	keys := sortKeys{descs: make([]bool, len(n.Keys)), dict: ec.dict()}
	exprs := make([]Expr, len(n.Keys))
	for i, k := range n.Keys {
		exprs[i], keys.descs[i] = k.Expr, k.Desc
	}
	var err error
	keys.exprs, err = bindVecs(exprs, ec.env(n.Input.Schema()))
	return keys, err
}

// keyedBatch is one drained input batch with its evaluated key columns
// and its arrival number.
type keyedBatch struct {
	*batch
	keys []*store.Col
	seq  int
}

// keyedRef addresses one row of a keyed batch.
type keyedRef struct {
	kb *keyedBatch
	i  int
}

// each drains in, handing visit every live row with its evaluated keys,
// in input order.
func (k sortKeys) each(in batchIterator, cancel *canceller, visit func(keyedRef)) error {
	for seq := 0; ; seq++ {
		if err := cancel.now(); err != nil {
			return err
		}
		b, err := in.nextBatch()
		if err != nil || b == nil {
			return err
		}
		kb := &keyedBatch{batch: b, keys: make([]*store.Col, len(k.exprs)), seq: seq}
		sel := b.selection()
		if err := evalAll(k.exprs, b, sel, kb.keys); err != nil {
			return err
		}
		for i, c := range kb.keys {
			kb.keys[i] = decodedAt(b, c, sel, k.dict)
		}
		for _, i := range sel {
			visit(keyedRef{kb, i})
		}
	}
}

// before reports whether x sorts ahead of y: by the keys, then by
// arrival.
func (k sortKeys) before(x, y keyedRef) bool {
	for i, desc := range k.descs {
		if c := store.Compare(x.kb.keys[i].Value(x.i), y.kb.keys[i].Value(y.i)); c != 0 {
			return (c < 0) != desc
		}
	}
	if x.kb.seq != y.kb.seq {
		return x.kb.seq < y.kb.seq
	}
	return x.i < y.i
}

// gatherSorted copies the referenced rows, in order, into dense output
// batches of at most vecBatchSize rows.
func gatherSorted(refs []keyedRef) []*batch {
	var out []*batch
	for lo := 0; lo < len(refs); lo += vecBatchSize {
		chunk := refs[lo:min(lo+vecBatchSize, len(refs))]
		cols := make([]*store.Col, len(chunk[0].kb.cols))
		for c := range cols {
			cols[c] = store.NewCol(chunk[0].kb.cols[c].Kind, len(chunk))
			for _, r := range chunk {
				cols[c].AppendFrom(r.kb.cols[c], r.i)
			}
		}
		out = append(out, &batch{cols: cols, n: len(chunk)})
	}
	return out
}

// vecSort is the full sort: it drains on the first call, then streams
// the sorted batches.
type vecSort struct {
	in     batchIterator
	keys   sortKeys
	cancel canceller
	op     *OpStats
	out    *vecScan
}

func (s *vecSort) nextBatch() (*batch, error) {
	if s.out == nil {
		var refs []keyedRef
		if err := s.keys.each(s.in, &s.cancel, func(r keyedRef) { refs = append(refs, r) }); err != nil {
			return nil, err
		}
		sort.Slice(refs, func(a, b int) bool { return s.keys.before(refs[a], refs[b]) })
		s.out = &vecScan{batches: gatherSorted(refs), cancel: s.cancel, op: s.op}
	}
	return s.out.nextBatch()
}

// vecTopK implements ORDER BY ... LIMIT k with a bounded heap instead
// of a full sort: O(n log k) time and references to at most k rows
// held. The physical planner substitutes it whenever a LimitNode sits
// on a SortNode.
type vecTopK struct {
	in     batchIterator
	keys   sortKeys
	k      int
	cancel canceller
	op     *OpStats
	out    *vecScan
}

// refHeap keeps the *last* row (per the requested order) at the top so
// it can be displaced by rows that sort ahead of it. It is a binary
// heap over the typed slice, sifting exactly as container/heap does,
// without boxing a keyedRef per push and pop.
type refHeap struct {
	refs []keyedRef
	keys sortKeys
}

// below reports whether ref i belongs nearer the top than ref j.
func (h *refHeap) below(i, j int) bool { return h.keys.before(h.refs[j], h.refs[i]) }

func (h *refHeap) push(r keyedRef) {
	h.refs = append(h.refs, r)
	for j := len(h.refs) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.below(j, i) {
			break
		}
		h.refs[i], h.refs[j] = h.refs[j], h.refs[i]
		j = i
	}
}

// down sifts ref i down among the first n.
func (h *refHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if j2 := j + 1; j2 < n && h.below(j2, j) {
			j = j2
		}
		if !h.below(j, i) {
			return
		}
		h.refs[i], h.refs[j] = h.refs[j], h.refs[i]
		i = j
	}
}

func (h *refHeap) pop() keyedRef {
	n := len(h.refs) - 1
	h.refs[0], h.refs[n] = h.refs[n], h.refs[0]
	h.down(0, n)
	r := h.refs[n]
	h.refs = h.refs[:n]
	return r
}

func (t *vecTopK) nextBatch() (*batch, error) {
	if t.out == nil {
		h := &refHeap{keys: t.keys}
		err := t.keys.each(t.in, &t.cancel, func(r keyedRef) {
			t.op.addIn(1)
			if len(h.refs) < t.k {
				h.push(r)
			} else if t.keys.before(r, h.refs[0]) {
				h.refs[0] = r
				h.down(0, len(h.refs))
			}
		})
		if err != nil {
			return nil, err
		}
		// pop yields last-first; fill back-to-front.
		refs := make([]keyedRef, len(h.refs))
		for i := len(refs) - 1; i >= 0; i-- {
			refs[i] = h.pop()
		}
		t.out = &vecScan{batches: gatherSorted(refs), cancel: t.cancel, op: t.op}
	}
	return t.out.nextBatch()
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
