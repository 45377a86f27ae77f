package query

import "drugtree/internal/store"

// Scans read storage through one Selection. A scan's access is
// resolved under the table's read lock to the slots of the rows it
// emits (TableView.Select), and every cell is copied out of storage
// afterwards, outside the lock, under the statement's pin
// (Selection.Fill). A sequential scan's residual runs once over the
// whole selection (filterSelected), filling only the columns it reads.
// Then either a fold consumes the scan — an aggregate, or a group-join's
// probe — and fills the rows' emitted columns a morsel at a time into
// one buffer it reuses, since every row is folded once and dropped
// (foldSelected); or the scan streams, and the surviving rows' emitted
// columns are filled into one exactly sized batch (stream). Either way
// the rows come in selection order, so groups, their first-seen order
// and float sums do not depend on who consumes the scan.

// foldMorsel is how many rows a fold copies out of storage at a time:
// the rows of its buffer. EXPERIMENTS "Folds that read storage"
// measured 64 to 1024: the bytes fall with the buffer down to 128, and
// 64 saves half a percent more at twice the morsels — twice the calls,
// and the allocations of any argument computed per morsel.
const foldMorsel = 128

// selectRows runs the scan's read: it selects, runs a sequential
// scan's residual, and returns the selection and the ranges of its
// non-empty batches, counting the rows examined as the scan's input.
func (s *vecScan) selectRows() (*scanRead, *store.Selection, []morselRange, error) {
	r := s.read
	s.read = nil
	sel, examined, err := r.tv.Select(r.ec.ctx, r.a)
	if err != nil {
		return nil, nil, nil, err
	}
	r.count(examined, s.op)
	batches := batchRanges(len(sel.Slots))
	if r.residual != nil {
		batches, err = r.filterSelected(sel, batches)
	}
	return r, sel, batches, err
}

// stream copies the emitted columns of the rows the read selects out of
// storage into one exactly sized batch and cuts it into the selection's
// batches.
func (s *vecScan) stream() ([]*batch, error) {
	r, sel, batches, err := s.selectRows()
	if err != nil {
		return nil, err
	}
	cb := &store.ColBatch{Cols: make([]store.Col, r.width), Rows: len(sel.Slots)}
	for i := range cb.Cols {
		sel.FillCol(&cb.Cols[i], i, 0, cb.Rows)
	}
	return batchesOf(cb, batches), nil
}

// foldSelected is foldAll over a scan that has not read yet: select,
// then fold the surviving rows in morsels. The scan's counters come out
// as streaming would leave them: rows examined in, one batch and its
// rows out per non-empty batch.
func (s *vecScan) foldSelected(op *OpStats, fold func(*batch) error) error {
	r, sel, batches, err := s.selectRows()
	if err != nil {
		return err
	}
	for _, b := range batches {
		s.op.emitRows(b.hi - b.lo)
	}
	op.addIn(int64(len(sel.Slots)))
	return r.foldSlots(sel, fold)
}

// filterSelected runs a sequential scan's residual over the selection
// one batch at a time: it fills one batch-sized buffer with the columns
// the residual reads and packs the slots of the rows that pass to the
// front of the selection. It returns the non-empty batches' ranges in
// the packed selection. An error is the first failing row's in
// selection order.
func (r *scanRead) filterSelected(sel *store.Selection, batches []morselRange) ([]morselRange, error) {
	poll := canceller{ctx: r.ec.ctx}
	// The columns the residual does not read stay unset: nothing reads
	// them.
	width := len(r.a.Cols)
	if r.a.Cols == nil {
		width = r.tv.Table().Schema().Len()
	}
	b := &batch{cols: make([]*store.Col, width)}
	for _, i := range r.filterCols {
		b.cols[i] = &store.Col{}
	}
	out, w := batches[:0], 0
	for _, rg := range batches {
		if err := poll.now(); err != nil {
			return nil, err
		}
		for _, i := range r.filterCols {
			sel.FillCol(b.cols[i], i, rg.lo, rg.hi)
		}
		b.n = rg.hi - rg.lo
		pass, err := r.residual(b, identity(b.n))
		if err != nil {
			return nil, err
		}
		if len(pass) == 0 {
			continue
		}
		// pass ascends, so no slot is overwritten before it is read.
		for j, i := range pass {
			sel.Slots[w+j] = sel.Slots[rg.lo+i]
		}
		out = append(out, morselRange{w, w + len(pass)})
		w += len(pass)
	}
	sel.Slots = sel.Slots[:w]
	return out, nil
}

// foldSlots folds the selected rows — the scan's emitted columns only —
// a morsel at a time through one reused buffer.
func (r *scanRead) foldSlots(sel *store.Selection, fold func(*batch) error) error {
	poll := canceller{ctx: r.ec.ctx}
	cols := make([]store.Col, r.width)
	b := &batch{cols: make([]*store.Col, r.width)}
	for i := range cols {
		b.cols[i] = &cols[i]
	}
	for m := 0; m < len(sel.Slots); m += foldMorsel {
		if err := poll.now(); err != nil {
			return err
		}
		end := min(m+foldMorsel, len(sel.Slots))
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
