package store

import "context"

// Columnar batch support for the vectorized query executor. A Col is
// one typed column vector; a ColBatch is a fixed-capacity set of
// column vectors. Selection.Fill fills a batch straight from table
// storage with one typed copy per projected cell — no per-row Row
// allocation — and the query layer's operators loop over the typed
// slices directly (in ~1024-row zero-copy views).
//
// Storage modes: a Col whose Kind is a concrete type (INT, FLOAT,
// STRING, BOOL) keeps its cells in the matching typed slice plus a
// null mask; this is sound because Schema.CheckRow guarantees every
// stored cell is either the declared kind or NULL. A Col with
// Kind == KindNull is a generic column holding arbitrary Values (used
// by the query layer for expressions whose kind is only known at
// runtime). A Col with Kind == KindCode is a coded STRING column: its
// cells are codes into the DB's dictionary, held in Int, which only the
// dictionary decodes (Dict.Value, Dict.Decode) — Value panics on one.

// Col is one column vector: a null mask plus exactly one active typed
// slice selected by Kind — or, in a frozen image's storage and a stored
// table's coded column, Compute in place of the slice. Callers must
// append values matching the column kind (or NULL); the typed accessors
// (Int, Float, Str) index positions where the null mask is false.
type Col struct {
	Kind  Kind
	Null  []bool    // Null[i] reports whether cell i is NULL
	Int   []int64   // KindInt, KindBool (0/1) and KindCode
	Float []float64 // KindFloat
	Str   []string  // KindString
	Vals  []Value   // generic mode (Kind == KindNull): arbitrary cells
	// Compute, set only on a column of a FrozenImage or on a stored
	// table's coded column (whose codes it reads), stands in for the
	// vector: it writes the cell of each of slots, in order, into dst's
	// vector of the column's kind (a coded column's codes into Int),
	// which its caller has sized to the list, and retains neither. Every
	// read of such a column outside its table goes through
	// Selection.FillCol, which calls it once a list of slots, so every
	// batch holds a vector.
	Compute func(dst *Col, slots []int32)
}

// NewCol returns an empty column of the given kind with room for
// capacity cells.
func NewCol(kind Kind, capacity int) *Col {
	c := &Col{Kind: kind, Null: make([]bool, 0, capacity)}
	switch kind {
	case KindInt, KindBool, KindCode:
		c.Int = make([]int64, 0, capacity)
	case KindFloat:
		c.Float = make([]float64, 0, capacity)
	case KindString:
		c.Str = make([]string, 0, capacity)
	default:
		c.Vals = make([]Value, 0, capacity)
	}
	return c
}

// NewDenseCol returns a column of the given kind with n cells, all
// NULL, for aligned random-access writes via the Set* methods.
func NewDenseCol(kind Kind, n int) *Col {
	c := &Col{Kind: kind, Null: make([]bool, n)}
	for i := range c.Null {
		c.Null[i] = true
	}
	switch kind {
	case KindInt, KindBool, KindCode:
		c.Int = make([]int64, n)
	case KindFloat:
		c.Float = make([]float64, n)
	case KindString:
		c.Str = make([]string, n)
	default:
		c.Vals = make([]Value, n)
	}
	return c
}

// Len returns the number of cells.
func (c *Col) Len() int { return len(c.Null) }

// Append adds one cell. The value's kind must match the column kind
// or be NULL (generic columns accept anything; a coded column, NULL
// alone).
func (c *Col) Append(v Value) {
	null := v.K == KindNull
	c.Null = append(c.Null, null)
	switch c.Kind {
	case KindInt, KindBool, KindCode:
		c.Int = append(c.Int, v.I)
	case KindFloat:
		c.Float = append(c.Float, v.F)
	case KindString:
		c.Str = append(c.Str, v.S)
	default:
		c.Vals = append(c.Vals, v)
		return
	}
	if !null && v.K != c.Kind {
		panic("store: Col.Append kind mismatch: " + v.K.String() + " into " + c.Kind.String())
	}
}

// AppendFrom appends cell i of src (same kind, or src generic) without
// constructing a Value for typed same-kind copies. A same-kind src may
// be a table's storage vector, whose null mask is nil while the column
// holds no NULL.
func (c *Col) AppendFrom(src *Col, i int) {
	if src.Kind != c.Kind {
		c.Append(src.Value(i))
		return
	}
	c.Null = append(c.Null, src.Null != nil && src.Null[i])
	switch c.Kind {
	case KindInt, KindBool, KindCode:
		c.Int = append(c.Int, src.Int[i])
	case KindFloat:
		c.Float = append(c.Float, src.Float[i])
	case KindString:
		c.Str = append(c.Str, src.Str[i])
	default:
		c.Vals = append(c.Vals, src.Vals[i])
	}
}

// Value reconstructs cell i as a Value. A coded cell has no Value of
// its own: Dict.Value decodes it.
func (c *Col) Value(i int) Value {
	if c.Null[i] {
		return Value{}
	}
	switch c.Kind {
	case KindInt:
		return Value{K: KindInt, I: c.Int[i]}
	case KindBool:
		return Value{K: KindBool, I: c.Int[i]}
	case KindFloat:
		return Value{K: KindFloat, F: c.Float[i]}
	case KindString:
		return Value{K: KindString, S: c.Str[i]}
	case KindCode:
		panic("store: Col.Value of a coded cell: decode it through its dictionary")
	}
	return c.Vals[i]
}

// IsNull reports whether cell i is NULL.
func (c *Col) IsNull(i int) bool { return c.Null[i] }

// SetValue writes cell i of a dense column.
func (c *Col) SetValue(i int, v Value) {
	c.Null[i] = v.K == KindNull
	switch c.Kind {
	case KindInt, KindBool, KindCode:
		c.Int[i] = v.I
	case KindFloat:
		c.Float[i] = v.F
	case KindString:
		c.Str[i] = v.S
	default:
		c.Vals[i] = v
	}
}

// SetInt writes a non-null INT (or BOOL payload) cell.
func (c *Col) SetInt(i int, x int64) {
	c.Null[i] = false
	c.Int[i] = x
}

// SetFloat writes a non-null FLOAT cell.
func (c *Col) SetFloat(i int, f float64) {
	c.Null[i] = false
	c.Float[i] = f
}

// SetBool writes a non-null BOOL cell (Kind must be KindBool).
func (c *Col) SetBool(i int, b bool) {
	c.Null[i] = false
	if b {
		c.Int[i] = 1
	} else {
		c.Int[i] = 0
	}
}

// Slice returns a zero-copy view of cells [lo, hi). Views share
// storage with the parent and must be treated read-only.
func (c *Col) Slice(lo, hi int) Col {
	out := Col{Kind: c.Kind, Null: c.Null[lo:hi]}
	switch c.Kind {
	case KindInt, KindBool, KindCode:
		out.Int = c.Int[lo:hi]
	case KindFloat:
		out.Float = c.Float[lo:hi]
	case KindString:
		out.Str = c.Str[lo:hi]
	default:
		out.Vals = c.Vals[lo:hi]
	}
	return out
}

// HashAt returns Value(i).Hash() without constructing the Value.
func (c *Col) HashAt(i int) uint64 {
	if c.Null[i] {
		return hashNull
	}
	switch c.Kind {
	case KindInt:
		return hashNumber(float64(c.Int[i]))
	case KindFloat:
		return hashNumber(c.Float[i])
	case KindString:
		return hashString(c.Str[i])
	case KindBool:
		return hashBool(c.Int[i])
	case KindCode:
		return hashCode(c.Int[i])
	}
	return c.Vals[i].Hash()
}

// ColBatch is a set of column vectors holding the same rows; one
// batch is the unit of work in the vectorized executor.
type ColBatch struct {
	Cols []Col
	Rows int
}

// ColBatchFromRows transposes rows into typed column vectors of the
// given kinds, sized exactly. Every cell must be its column's kind or
// NULL (what Col.Append demands), which holds for rows read from a
// table whose schema declares those kinds.
func ColBatchFromRows(kinds []Kind, rows []Row) *ColBatch {
	cb := &ColBatch{Cols: make([]Col, len(kinds)), Rows: len(rows)}
	for c, k := range kinds {
		col := NewCol(k, len(rows))
		for _, r := range rows {
			col.Append(r[c])
		}
		cb.Cols[c] = *col
	}
	return cb
}

// RowsFromColBatch is ColBatchFromRows' inverse: it copies the batch's
// rows into one cell slab, each row cap-clipped to its own cells so an
// append to one never overwrites the next, decoding coded cells through
// d (which may be nil when no column is coded). Nil or empty has no
// rows.
func RowsFromColBatch(cb *ColBatch, d *Dict) []Row {
	if cb == nil || cb.Rows == 0 {
		return nil
	}
	w := len(cb.Cols)
	slab := make([]Value, cb.Rows*w)
	rows := make([]Row, cb.Rows)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	for c := range cb.Cols {
		col := &cb.Cols[c]
		for i, r := range rows {
			r[c] = d.Value(col, i)
		}
	}
	return rows
}

// Selection is an access resolved to the slots of the rows it emits,
// with no cell copied yet: Fill copies them later, a range at a time,
// into a buffer the caller reuses or one sized to the whole selection.
// It holds copies of the output columns' storage-vector headers taken
// under the read lock, and Fill reads through them without the lock.
// That is sound only while a pin holds the selected rows' version, and
// every TableView belongs to a SnapshotHandle that holds one: GC frees a
// slot only once no pin can see its row, an insert writes only a free
// slot or one past every vector's old length, and a vector an append
// reallocates leaves the old array — the one the captured header names
// — intact.
type Selection struct {
	// Slots lists the selected rows in access order. A caller may narrow
	// it in place to a subsequence of itself, never add to it.
	Slots []int32
	cols  []Col
}

// Select resolves the access at the view's pinned version to a
// Selection — index walk, visibility, Accept and Limit applied under
// the read lock, in one pass — and returns how many visible rows the
// walk examined; ctx is polled as the walk goes. It is the one way the
// query layer reaches stored rows, and an access no index serves is an
// error naming the table and column (see Access). Reading the cells is left to Fill,
// outside the lock, so the view's handle must stay pinned until the last
// Fill returns.
func (tv *TableView) Select(ctx context.Context, a Access) (*Selection, int, error) {
	t := tv.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	r := tv.reader
	cols, storage := a.outputCols(t.schema), r.storage()
	sel := &Selection{cols: make([]Col, len(cols))}
	for i, c := range cols {
		sel.cols[i] = storage[c]
	}
	if a.Accept != nil {
		// A residual may reject most postings, so the list starts at one
		// batch's worth, holds the candidates awaiting Accept in its
		// spare capacity, and grows on demand.
		max := pollEvery
		if a.Limit > 0 {
			max = min(max, a.Limit)
		}
		var examined int
		var err error
		sel.Slots, examined, err = acceptSlots(r, ctx.Err, a, make([]int32, 0, capacity(r, a, max)))
		return sel, examined, err
	}
	// With no Accept every row the walk examines is emitted, and the
	// posting count (capped by Limit) sizes the list.
	sel.Slots = make([]int32, 0, capacity(r, a, a.Limit))
	err := r.walk(ctx.Err, a, func(s int) bool {
		sel.Slots = append(sel.Slots, int32(s))
		return a.Limit <= 0 || len(sel.Slots) < a.Limit
	})
	return sel, len(sel.Slots), err
}

// Fill copies the cells of the rows Slots[lo:hi] into dst, one vector
// per output column, overwriting what dst held and reusing its vectors'
// capacity.
func (s *Selection) Fill(dst *ColBatch, lo, hi int) {
	if len(dst.Cols) != len(s.cols) {
		dst.Cols = make([]Col, len(s.cols))
	}
	for i := range s.cols {
		s.FillCol(&dst.Cols[i], i, lo, hi)
	}
	dst.Rows = hi - lo
}

// FillCol is Fill for output column i alone: dst becomes that column's
// cells at the rows Slots[lo:hi], in its storage kind — a coded column's
// as its codes, a KindCode column, which the DB's dictionary decodes.
func (s *Selection) FillCol(dst *Col, i, lo, hi int) {
	src, slots := &s.cols[i], s.Slots[lo:hi]
	dst.Kind = src.Kind
	dst.Null = resized(dst.Null, len(slots))
	if src.Null == nil {
		clear(dst.Null)
	} else {
		for k, sl := range slots {
			dst.Null[k] = src.Null[sl]
		}
	}
	switch src.Kind {
	case KindInt, KindBool, KindCode:
		dst.Int = resized(dst.Int, len(slots))
	case KindFloat:
		dst.Float = resized(dst.Float, len(slots))
	default:
		dst.Str = resized(dst.Str, len(slots))
	}
	switch {
	case src.Compute != nil:
		src.Compute(dst, slots)
	case src.Kind == KindInt || src.Kind == KindBool:
		for k, sl := range slots {
			dst.Int[k] = src.Int[sl]
		}
	case src.Kind == KindFloat:
		for k, sl := range slots {
			dst.Float[k] = src.Float[sl]
		}
	default:
		for k, sl := range slots {
			dst.Str[k] = src.Str[sl]
		}
	}
}

// resized returns x with length n, reallocated only when its capacity
// falls short.
func resized[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n)
	}
	return x[:n]
}
