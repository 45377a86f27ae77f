package query

import (
	"context"
	"slices"

	"drugtree/internal/store"
)

// Batch execution. Batches — fixed-capacity column vectors plus a
// selection vector — are the only unit operators exchange, so
// predicate and projection work runs as tight loops over typed slices
// (see vec_eval.go), and the result leaves as columns (drainColumns
// below).
//
// Cancellation: every nextBatch implementation polls its context at
// batch granularity (one poll per ~vecBatchSize rows) via
// canceller.now. The ctxcheck lint rule "batchpoll" enforces this.

// vecBatchSize is the target number of rows per batch: large enough
// to amortize per-batch overhead, small enough to stay cache-resident
// and to bound cancellation latency.
const vecBatchSize = 1024

// batch is the unit of vectorized data flow: column vectors plus a
// selection vector. sel == nil means every row in [0, n) is live;
// otherwise sel lists the live row indices in ascending order.
// Filters narrow sel without moving any column data.
type batch struct {
	cols []*store.Col
	sel  []int
	n    int
	// pool, when set, recycles the columns and selection vectors an
	// evaluation over the batch allocates (see colPool).
	pool *colPool
}

// live returns the number of selected rows.
func (b *batch) live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// rowIdx maps a dense position k in [0, live()) to the underlying
// row index.
func (b *batch) rowIdx(k int) int {
	if b.sel != nil {
		return b.sel[k]
	}
	return k
}

// identitySel is the selection vector of every dense batch: identity
// hands out windows of it, so nothing may ever write through one.
var identitySel = func() (sel [vecBatchSize]int) {
	for i := range sel {
		sel[i] = i
	}
	return sel
}()

// identity returns the selection 0..n-1: a window of identitySel (a
// longer one is allocated). The returned slice is read-only; its
// capacity is its length, so an append can only copy.
func identity(n int) []int {
	if n <= vecBatchSize {
		return identitySel[:n:n]
	}
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// selection returns the live row indices: sel, or the identity for a
// dense batch. The returned slice is read-only.
func (b *batch) selection() []int {
	if b.sel != nil {
		return b.sel
	}
	return identity(b.n)
}

// batchIterator is the operator interface: nextBatch returns the next
// batch, or nil at end of stream.
type batchIterator interface {
	nextBatch() (*batch, error)
}

// batchRanges cuts n rows into vecBatchSize ranges: the batches a
// materialized input streams as.
func batchRanges(n int) []morselRange {
	out := make([]morselRange, 0, (n+vecBatchSize-1)/vecBatchSize)
	for lo := 0; lo < n; lo += vecBatchSize {
		out = append(out, morselRange{lo, min(lo+vecBatchSize, n)})
	}
	return out
}

// batchesOf slices a materialized ColBatch into one view per range, or
// — ranges nil — into the views of batchRanges(cb.Rows) (zero-copy: the
// views alias the ColBatch's column storage). All the views' headers
// come from three allocations, however many there are.
func batchesOf(cb *store.ColBatch, ranges []morselRange) []*batch {
	nb, nc := len(ranges), len(cb.Cols)
	if ranges == nil {
		nb = (cb.Rows + vecBatchSize - 1) / vecBatchSize
	}
	if nb == 0 {
		return nil
	}
	batches, views, ptrs := make([]batch, nb), make([]store.Col, nb*nc), make([]*store.Col, nb*nc)
	out := make([]*batch, nb)
	for k := range batches {
		lo, hi := k*vecBatchSize, min((k+1)*vecBatchSize, cb.Rows)
		if ranges != nil {
			lo, hi = ranges[k].lo, ranges[k].hi
		}
		for c := range cb.Cols {
			views[k*nc+c] = cb.Cols[c].Slice(lo, hi)
			ptrs[k*nc+c] = &views[k*nc+c]
		}
		batches[k] = batch{cols: ptrs[k*nc : (k+1)*nc : (k+1)*nc], n: hi - lo}
		out[k] = &batches[k]
	}
	return out
}

// drainBatches materializes a batch stream, polling ctx per batch.
func drainBatches(ctx context.Context, in batchIterator) ([]*batch, error) {
	c := canceller{ctx: ctx}
	var out []*batch
	for {
		if err := c.now(); err != nil {
			return nil, err
		}
		b, err := in.nextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b)
	}
}

// drainColumns is the columnar result boundary: it materializes a
// batch stream into one exactly-sized typed vector per output column.
// Operators' vectors are private to the plan (scans copy cells out of
// table storage), so a column whose batches are dense, in-order views
// of the whole of one vector — what batchesOf hands out, passed through
// by an identity projection — is that vector, adopted as is; every other
// column concatenates its live cells into a fresh one. A vector adopted
// once is copied the second time, so no two result columns share one.
// A column read from a coded table column stays coded: its codes are
// decoded only where the result leaves the engine.
func drainColumns(ctx context.Context, in batchIterator, schema *planSchema) (*store.ColBatch, error) {
	batches, err := drainBatches(ctx, in)
	if err != nil {
		return nil, err
	}
	out := &store.ColBatch{Cols: make([]store.Col, schema.Len())}
	for _, b := range batches {
		out.Rows += b.live()
	}
	var adopted []*bool // the null masks of adopted vectors
	for c := range out.Cols {
		kind := outputKind(batches, c, schema.cols[c].Kind)
		if v, ok := wholeVector(batches, c, kind, out.Rows); ok && !slices.Contains(adopted, &v.Null[0]) {
			adopted = append(adopted, &v.Null[0])
			out.Cols[c] = v
			continue
		}
		dst := store.NewCol(kind, out.Rows)
		for _, b := range batches {
			appendLive(dst, b, c)
		}
		out.Cols[c] = *dst
	}
	return out, nil
}

// wholeVector returns column c of the batches as the one vector they
// view, when they are dense, of the given kind, and together exactly
// that vector's rows cells, in order, from its first cell to the end of
// its capacity (a larger vector is copied: the result cache charges
// capacity).
func wholeVector(batches []*batch, c int, kind store.Kind, rows int) (store.Col, bool) {
	if rows == 0 {
		return store.Col{}, false
	}
	first := batches[0].cols[c]
	if first.Kind != kind || cap(first.Null) != rows || cellCap(first) != rows {
		return store.Col{}, false
	}
	whole := first.Slice(0, rows)
	at := 0
	for _, b := range batches {
		v := b.cols[c]
		if b.sel != nil || v.Kind != kind || (b.n > 0 && !sameCell(v, &whole, at)) {
			return store.Col{}, false
		}
		at += b.n
	}
	return whole, at == rows
}

// cellCap is the capacity of a column's active cell slice.
func cellCap(c *store.Col) int {
	switch c.Kind {
	case store.KindInt, store.KindBool, store.KindCode:
		return cap(c.Int)
	case store.KindFloat:
		return cap(c.Float)
	case store.KindString:
		return cap(c.Str)
	}
	return cap(c.Vals)
}

// sameCell reports whether v's first cell is cell i of whole, in
// storage: both its null flag and its active slice's element.
func sameCell(v, whole *store.Col, i int) bool {
	if &v.Null[0] != &whole.Null[i] {
		return false
	}
	switch v.Kind {
	case store.KindInt, store.KindBool, store.KindCode:
		return &v.Int[0] == &whole.Int[i]
	case store.KindFloat:
		return &v.Float[0] == &whole.Float[i]
	case store.KindString:
		return &v.Str[0] == &whole.Str[i]
	}
	return &v.Vals[0] == &whole.Vals[i]
}

// appendLive appends the live cells of b's column c to dst, whose kind
// is the column's or generic: a dense same-kind column is one bulk
// append per vector.
func appendLive(dst *store.Col, b *batch, c int) {
	src := b.cols[c]
	if b.sel == nil && src.Kind == dst.Kind {
		v := src.Slice(0, b.n) // only the active vector is set
		dst.Null = append(dst.Null, v.Null...)
		dst.Int = append(dst.Int, v.Int...)
		dst.Float = append(dst.Float, v.Float...)
		dst.Str = append(dst.Str, v.Str...)
		dst.Vals = append(dst.Vals, v.Vals...)
		return
	}
	for k, live := 0, b.live(); k < live; k++ {
		dst.AppendFrom(src, b.rowIdx(k))
	}
}

// concatBatches returns the live rows of batches, narrowed to the
// columns cols, as one dense batch: a lone dense batch's own columns,
// or else copies sized exactly, in the kind the batches deliver.
func concatBatches(batches []*batch, cols []int) *batch {
	out := &batch{cols: make([]*store.Col, len(cols))}
	if len(batches) == 1 && batches[0].sel == nil {
		for k, c := range cols {
			out.cols[k] = batches[0].cols[c]
		}
		out.n = batches[0].n
		return out
	}
	for _, b := range batches {
		out.n += b.live()
	}
	for k, c := range cols {
		kind := store.KindNull
		if len(batches) > 0 {
			kind = batches[0].cols[c].Kind
		}
		out.cols[k] = store.NewCol(kind, out.n)
		for _, b := range batches {
			appendLive(out.cols[k], b, c)
		}
	}
	return out
}

// gatherInto fills dst — its null mask allocated, len(idx) cells — with
// the cells of src at the positions idx, in src's kind (a coded column's
// codes).
func gatherInto[I int | int32](dst, src *store.Col, idx []I) {
	dst.Kind = src.Kind
	for k, i := range idx {
		dst.Null[k] = src.Null[i]
	}
	switch src.Kind {
	case store.KindInt, store.KindBool, store.KindCode:
		dst.Int = make([]int64, len(idx))
		for k, i := range idx {
			dst.Int[k] = src.Int[i]
		}
	case store.KindFloat:
		dst.Float = make([]float64, len(idx))
		for k, i := range idx {
			dst.Float[k] = src.Float[i]
		}
	case store.KindString:
		dst.Str = make([]string, len(idx))
		for k, i := range idx {
			dst.Str[k] = src.Str[i]
		}
	default:
		dst.Vals = make([]store.Value, len(idx))
		for k, i := range idx {
			dst.Vals[k] = src.Vals[i]
		}
	}
}

// outputKind picks the storage kind of output column c: codes when it
// is coded (a column read from a coded table column is coded in every
// batch), else the kind the plan declares when every live cell is that
// kind or NULL, generic otherwise. Declared kinds are static inferences (an arithmetic
// expression over runtime-typed operands can miss), and generic
// columns' cells usually do all have the declared kind: a scalar
// subquery's constant, or arithmetic and negation over generic cells —
// also as an aggregate's group key or MIN/MAX argument, whose output
// column keeps its input's kind.
func outputKind(batches []*batch, c int, declared store.Kind) store.Kind {
	if declared == store.KindNull {
		return store.KindNull
	}
	if len(batches) > 0 && batches[0].cols[c].Kind == store.KindCode {
		return store.KindCode
	}
	for _, b := range batches {
		src := b.cols[c]
		if src.Kind == declared {
			continue
		}
		if src.Kind != store.KindNull {
			return store.KindNull
		}
		for k, live := 0, b.live(); k < live; k++ {
			if v := src.Vals[b.rowIdx(k)]; v.K != store.KindNull && v.K != declared {
				return store.KindNull
			}
		}
	}
	return declared
}
