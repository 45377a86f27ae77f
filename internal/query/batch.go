package query

import (
	"context"

	"drugtree/internal/store"
)

// Batch execution. Batches — fixed-capacity column vectors plus a
// selection vector — are the only unit operators exchange, so
// predicate and projection work runs as tight loops over typed slices
// (see vec_eval.go). Row form exists in two places only: inside a
// compiled expression that can fail at evaluation time (vec_eval.go
// evaluates it row-major over a scratch row), and at the Result.Rows
// sink (drainRows below).
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

// selection returns the live row indices, materializing the identity
// selection when sel is nil. The returned slice must be treated
// read-only.
func (b *batch) selection() []int {
	if b.sel != nil {
		return b.sel
	}
	sel := make([]int, b.n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// rowAt materializes row index i as a store.Row. dst is reused when
// non-nil and of the batch's width; pass nil to get a fresh row the
// caller may retain.
func (b *batch) rowAt(i int, dst store.Row) store.Row {
	if dst == nil || len(dst) != len(b.cols) {
		dst = make(store.Row, len(b.cols))
	}
	for c, col := range b.cols {
		dst[c] = col.Value(i)
	}
	return dst
}

// batchIterator is the operator interface: nextBatch returns the next
// batch, or nil at end of stream.
type batchIterator interface {
	nextBatch() (*batch, error)
}

// rowRef addresses one row inside a materialized batch.
type rowRef struct {
	b *batch
	i int
}

// batchesOf slices a materialized ColBatch into vecBatchSize views
// (zero-copy: the views alias the ColBatch's column storage).
func batchesOf(cb *store.ColBatch) []*batch {
	if cb.Rows == 0 {
		return nil
	}
	out := make([]*batch, 0, (cb.Rows+vecBatchSize-1)/vecBatchSize)
	for lo := 0; lo < cb.Rows; lo += vecBatchSize {
		hi := lo + vecBatchSize
		if hi > cb.Rows {
			hi = cb.Rows
		}
		b := &batch{cols: make([]*store.Col, len(cb.Cols)), n: hi - lo}
		for c := range cb.Cols {
			v := cb.Cols[c].Slice(lo, hi)
			b.cols[c] = &v
		}
		out = append(out, b)
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
// batch stream and concatenates the live cells into one exactly-sized
// typed vector per output column, copying so the result never aliases
// batch or table storage.
func drainColumns(ctx context.Context, in batchIterator, schema *planSchema) (*store.ColBatch, error) {
	batches, err := drainBatches(ctx, in)
	if err != nil {
		return nil, err
	}
	out := &store.ColBatch{Cols: make([]store.Col, schema.Len())}
	for _, b := range batches {
		out.Rows += b.live()
	}
	for c := range out.Cols {
		dst := store.NewCol(outputKind(batches, c, schema.cols[c].Kind), out.Rows)
		for _, b := range batches {
			src := b.cols[c]
			if b.sel == nil && src.Kind == dst.Kind {
				v := src.Slice(0, b.n) // only the active vector is set
				dst.Null = append(dst.Null, v.Null...)
				dst.Int = append(dst.Int, v.Int...)
				dst.Float = append(dst.Float, v.Float...)
				dst.Str = append(dst.Str, v.Str...)
				dst.Vals = append(dst.Vals, v.Vals...)
				continue
			}
			for k, live := 0, b.live(); k < live; k++ {
				dst.AppendFrom(src, b.rowIdx(k))
			}
		}
		out.Cols[c] = *dst
	}
	return out, nil
}

// outputKind picks the storage kind of output column c: the kind the
// plan declares when every live cell is that kind or NULL, generic
// otherwise. Declared kinds are static inferences (an arithmetic
// expression over runtime-typed operands can miss), and two producers
// deliver generic columns whose cells usually do all have the declared
// kind: the aggregate's output and row-evaluated expressions (TANIMOTO,
// subqueries, shapes that can fail at evaluation time).
func outputKind(batches []*batch, c int, declared store.Kind) store.Kind {
	if declared == store.KindNull {
		return store.KindNull
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

// drainRows is the row result boundary, the one place batches become
// rows: each live row is materialized as a fresh store.Row that never
// aliases batch or table storage, so callers may mutate it freely.
func drainRows(ctx context.Context, in batchIterator) ([]store.Row, error) {
	c := canceller{ctx: ctx}
	var rows []store.Row
	for {
		if err := c.now(); err != nil {
			return nil, err
		}
		b, err := in.nextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		for k, live := 0, b.live(); k < live; k++ {
			rows = append(rows, b.rowAt(b.rowIdx(k), nil))
		}
	}
}
