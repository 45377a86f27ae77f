package query

import (
	"sync/atomic"

	"drugtree/internal/store"
)

// Folds that read storage. An aggregate, or a group-join's probe, over a
// scan of a pinned view never gathers the scan: every row it reads is
// folded once and dropped, so a copy of the whole input is wasted. The
// scan's access is resolved instead to the slots of the rows it emits
// (TableView.Select, under the table's read lock), and each worker
// copies its rows' cells out of storage a morsel at a time into one
// buffer it reuses (Selection.Fill, outside the lock; the statement's
// pin keeps them intact). The slot list is cut into the vecBatchSize
// batches gathering would have made, and those batches into the same
// chunks per worker, so partial tables, their merge order and float sums
// are those of the gathered path bit for bit. Unpinned views keep the
// gather: with no pin, the next commit may free and reuse any slot.

// foldMorsel is how many rows a fold copies out of storage at a time:
// the rows of one worker's buffer. EXPERIMENTS "Folds that read
// storage" measured 64 to 1024: the bytes fall with the buffer down to
// 128, and 64 saves half a percent more at twice the morsels — twice
// the calls, and the allocations of any argument computed per morsel.
const foldMorsel = 128

// foldSelected is foldAll over a scan that has not read yet, on a pinned
// view: select, run a sequential scan's residual batch by batch, then
// fold the surviving rows in morsels. The scan's counters come out as
// gathering would have left them: rows examined in, one batch and its
// rows out per non-empty batch.
func (s *vecScan) foldSelected(op *OpStats, part func() (*aggTable, func(*batch) error)) (*aggTable, error) {
	r := s.read
	s.read = nil
	sel, examined, err := r.tv.Select(r.ec.ctx, r.a)
	if err != nil {
		return nil, err
	}
	r.count(examined, s.op)
	batches := make([]morselRange, 0, (len(sel.Slots)+vecBatchSize-1)/vecBatchSize)
	for lo := 0; lo < len(sel.Slots); lo += vecBatchSize {
		batches = append(batches, morselRange{lo, min(lo+vecBatchSize, len(sel.Slots))})
	}
	if s.residual != nil {
		if batches, err = s.filterSelected(r, sel, batches); err != nil {
			return nil, err
		}
	}
	for _, b := range batches {
		s.op.emitRows(b.hi - b.lo)
	}
	total := len(sel.Slots)
	op.addIn(int64(total))
	atomic.AddInt64(&r.ec.stats.RowsFilled, int64(total))
	return foldChunks(r.ec, len(batches), total, part, func(c morselRange, fold func(*batch) error) error {
		return s.foldSlots(r, sel, batches[c.lo].lo, batches[c.hi-1].hi, fold)
	})
}

// filterSelected runs a sequential scan's residual over the selection
// one batch at a time, the batches split over the pool as gathering
// splits them: each worker fills one batch-sized buffer with the
// columns the residual reads and narrows its batches' slots to the rows
// that pass. The surviving slots are then packed to the front of the
// selection, and the non-empty batches' ranges in it returned.
func (s *vecScan) filterSelected(r *scanRead, sel *store.Selection, batches []morselRange) ([]morselRange, error) {
	kept := make([]int, len(batches))
	err := runChunks(r.ec.ctx, splitChunks(len(batches), r.ec.para), func(_ int, c morselRange) error {
		poll := canceller{ctx: r.ec.ctx}
		// The columns the residual does not read stay unset: nothing
		// reads them.
		width := len(r.a.Cols)
		if r.a.Cols == nil {
			width = r.tv.Table().Schema().Len()
		}
		b := &batch{cols: make([]*store.Col, width)}
		for _, i := range r.filterCols {
			b.cols[i] = &store.Col{}
		}
		for k := c.lo; k < c.hi; k++ {
			if err := poll.now(); err != nil {
				return err
			}
			lo, hi := batches[k].lo, batches[k].hi
			for _, i := range r.filterCols {
				sel.FillCol(b.cols[i], i, lo, hi)
			}
			b.n = hi - lo
			pass, err := s.residual(b, identity(b.n))
			if err != nil {
				return err
			}
			for j, i := range pass {
				sel.Slots[lo+j] = sel.Slots[lo+i]
			}
			kept[k] = len(pass)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, w := batches[:0], 0
	for k, b := range batches {
		if kept[k] > 0 {
			copy(sel.Slots[w:], sel.Slots[b.lo:b.lo+kept[k]])
			out = append(out, morselRange{w, w + kept[k]})
			w += kept[k]
		}
	}
	sel.Slots = sel.Slots[:w]
	return out, nil
}

// foldSlots folds the selected rows Slots[lo:hi] — the scan's emitted
// columns only — a morsel at a time through one reused buffer.
func (s *vecScan) foldSlots(r *scanRead, sel *store.Selection, lo, hi int, fold func(*batch) error) error {
	poll := canceller{ctx: r.ec.ctx}
	cols := make([]store.Col, s.width)
	b := &batch{cols: make([]*store.Col, s.width)}
	for i := range cols {
		b.cols[i] = &cols[i]
	}
	for m := lo; m < hi; m += foldMorsel {
		if err := poll.now(); err != nil {
			return err
		}
		end := min(m+foldMorsel, hi)
		for i := range cols {
			sel.FillCol(&cols[i], i, m, end)
		}
		b.n = end - m
		if err := fold(b); err != nil {
			return err
		}
	}
	return nil
}
