package store

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// FrozenImage is the whole content of a frozen table, handed to
// DB.PublishFrozen: Rows rows, one column per schema column in slot
// order, each of its column's kind with no NULL cell (Null nil). A
// column is a vector of Rows cells or computed (Compute set, no
// vector). The table takes the columns over and nothing writes their
// vectors afterwards, so two columns may share a vector and a vector
// may be its owner's own array.
type FrozenImage struct {
	Rows int
	Cols []Col
	// Dense, when set, names an INT column the image leaves empty: its
	// cell in slot s is s. It reports as a B+-tree index, and a key
	// probe or range walk on it is slot arithmetic.
	Dense string
	// Hash, when set, names a column that reports as a hash index,
	// served by its owner's index of it: Lookup appends to dst every
	// slot whose cell equals k, in ascending order, and Distinct is the
	// number of distinct cells.
	Hash     string
	Lookup   func(dst []int32, k Value) []int32
	Distinct int
}

// frozenImage is one published image of a frozen table. It is
// immutable, so reads need no lock and a view keeps the image it pinned.
type frozenImage struct {
	name     string
	schema   *Schema
	version  int64
	cols     []Col
	n        int
	dense    int                                // column position of FrozenImage.Dense, -1 for none
	hash     int                                // column position of FrozenImage.Hash, -1 for none
	lookup   func(dst []int32, k Value) []int32 // FrozenImage.Lookup
	distinct int                                // FrozenImage.Distinct
	indexes  []IndexSpec
}

// PublishFrozen publishes img as the whole content of the frozen table
// name: created at commit version 1 when absent, republished at the next
// version when it exists, with the same schema, Dense and Hash. A frozen
// table reads like any other — Scan, Snapshot, CountPostings,
// DistinctKeys and pinned Selects — but holds no row versions, free
// slots or index structures, and a view pinned before a republish keeps
// reading the image it pinned. Its only write is a republish: CommitDeltas refuses
// it. Neither the WAL nor a checkpoint holds it and a publish fires no
// CommitEvent, so its owner publishes it again after every Open.
func (db *DB) PublishFrozen(name string, schema *Schema, img FrozenImage) (*Table, error) {
	f, err := newFrozenImage(name, schema, img)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[name]
	switch {
	case !ok:
		t = newTable(name, schema, db.dict)
		t.img = f
		db.tables[name] = t
	case t.img == nil:
		return nil, fmt.Errorf("store: table %q is a stored table (the WAL or a checkpoint holds it), so no frozen image can replace it", name)
	case !slices.Equal(t.schema.Columns, schema.Columns):
		return nil, fmt.Errorf("store: frozen table %q republished with schema (%v), want (%v)", name, schema, t.schema)
	case f.dense != t.img.dense || f.hash != t.img.hash:
		// The planner reads a table's indexes at plan time and a pinned
		// view keeps its image, so an access planned against one image
		// must be served by the next.
		return nil, fmt.Errorf("store: frozen table %q republished with indexes %v, want %v", name, f.indexes, t.img.indexes)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f.schema, f.version = t.schema, t.commit+1
	t.img, t.live, t.commit = f, f.n, f.version
	return t, nil
}

// newFrozenImage checks img against the schema.
func newFrozenImage(name string, schema *Schema, img FrozenImage) (*frozenImage, error) {
	if len(img.Cols) != schema.Len() {
		return nil, fmt.Errorf("store: frozen table %s: %d columns for %d", name, len(img.Cols), schema.Len())
	}
	if img.Rows < 0 || img.Rows >= math.MaxInt32 {
		return nil, fmt.Errorf("store: frozen table %s: %d rows exceed the slot range", name, img.Rows)
	}
	f := &frozenImage{name: name, schema: schema, cols: slices.Clone(img.Cols), n: img.Rows, dense: -1, hash: -1}
	if img.Dense != "" {
		if f.dense = schema.ColumnIndex(img.Dense); f.dense < 0 || schema.Columns[f.dense].Kind != KindInt {
			return nil, fmt.Errorf("store: frozen table %s: dense column %q is not an INT column", name, img.Dense)
		}
		f.indexes = append(f.indexes, IndexSpec{Column: img.Dense, Type: IndexBTree})
	}
	for c := range f.cols {
		col, want := &f.cols[c], schema.Columns[c]
		own := len(col.Int) // the vector of the column's kind
		switch col.Kind {
		case KindFloat:
			own = len(col.Float)
		case KindString:
			own = len(col.Str)
		}
		held := col.Int != nil || col.Float != nil || col.Str != nil
		switch {
		case col.Kind != want.Kind:
			return nil, fmt.Errorf("store: frozen table %s: column %s holds %v, want %v", name, want.Name, col.Kind, want.Kind)
		case col.Null != nil || col.Vals != nil:
			return nil, fmt.Errorf("store: frozen table %s: column %s has a null mask or generic cells", name, want.Name)
		case c == f.dense && (held || col.Compute != nil):
			return nil, fmt.Errorf("store: frozen table %s: dense column %s holds cells; its cell in slot s is s", name, want.Name)
		case c == f.dense:
			col.Compute = slotCells
		case col.Compute != nil && held:
			return nil, fmt.Errorf("store: frozen table %s: computed column %s holds a vector", name, want.Name)
		case col.Compute == nil && (own != f.n || len(col.Int)+len(col.Float)+len(col.Str) != own):
			return nil, fmt.Errorf("store: frozen table %s: column %s holds %d cells of its kind, want %d and no other vector", name, want.Name, own, f.n)
		}
	}
	if img.Hash != "" {
		if f.hash = schema.ColumnIndex(img.Hash); f.hash < 0 || f.hash == f.dense || img.Lookup == nil {
			return nil, fmt.Errorf("store: frozen table %s: hash column %q is not a column, is the dense one or has no lookup", name, img.Hash)
		}
		f.lookup, f.distinct = img.Lookup, img.Distinct
		f.indexes = append(f.indexes, IndexSpec{Column: img.Hash, Type: IndexHash})
	}
	slices.SortFunc(f.indexes, func(a, b IndexSpec) int { return cmp.Compare(a.Column, b.Column) })
	return f, nil
}

// slotCells computes a dense column: the cell in slot s is s.
func slotCells(dst *Col, slots []int32) {
	for k, s := range slots {
		dst.Int[k] = int64(s)
	}
}

// denseSlot resolves a key probe on the dense column: the slot holding
// a key equal to k, as a B+-tree over the INT column would find it.
func (f *frozenImage) denseSlot(k Value) (int, bool) {
	if k.K != KindInt {
		lo, los := keyBound(KindInt, k, false)
		hi, his := keyBound(KindInt, k, true)
		if los != boundKey || his != boundKey || lo.I != hi.I {
			return 0, false
		}
		k = lo
	}
	return int(k.I), k.I >= 0 && k.I < int64(f.n)
}

// denseRange resolves a range walk over the INT keys [0, n) — a frozen
// image's dense column, a ranking's ranks — to the keys [first, last]
// (empty when first > last), bounds restated in INT as a B+-tree walk
// restates them.
func denseRange(n int, lo, hi *Value) (first, last int) {
	a, b := int64(0), int64(n-1)
	if lo != nil {
		switch v, state := keyBound(KindInt, *lo, false); state {
		case boundEmpty:
			return 0, -1
		case boundKey:
			a = max(a, v.I)
		}
	}
	if hi != nil {
		switch v, state := keyBound(KindInt, *hi, true); state {
		case boundEmpty:
			return 0, -1
		case boundKey:
			b = min(b, v.I)
		}
	}
	if a > b {
		return 0, -1
	}
	return int(a), int(b)
}

// walk selects the access's rows: a full pass over the slots, the
// dense column by slot arithmetic and the hash column's keys through the
// owner's lookup. Any other access is refused, as on a stored table: the
// columns named here are the indexes the image reports.
func (f *frozenImage) walk(poll func() error, a Access, fn func(s int) bool) error {
	ci := -1
	if a.Column != "" {
		ci = f.schema.ColumnIndex(a.Column)
		if ci < 0 || a.Rank != nil || ci != f.dense && (ci != f.hash || a.Keys == nil) {
			return unserved(f.name, f.schema, a)
		}
	}
	var err error
	visited := 0
	// visit hands one slot to fn, polling every pollEvery slots.
	visit := func(s int) bool {
		if visited++; poll != nil && visited%pollEvery == 0 {
			err = poll()
		}
		return err == nil && fn(s)
	}
	switch {
	case ci < 0:
		for s := 0; s < f.n && visit(s); s++ {
		}
	case ci == f.dense && a.Keys != nil:
		for _, k := range a.Keys {
			if s, ok := f.denseSlot(k); ok && !visit(s) {
				break
			}
		}
	case ci == f.dense:
		first, last := denseRange(f.n, a.Lo, a.Hi)
		if a.Desc {
			for s := last; s >= first && visit(s); s-- {
			}
		} else {
			for s := first; s <= last && visit(s); s++ {
			}
		}
	default:
		var slots []int32 // a key's slots, reused from key to key
		for _, k := range a.Keys {
			slots = f.lookup(slots[:0], k)
			for _, s := range slots {
				if !visit(int(s)) {
					return err
				}
			}
		}
	}
	return err
}

// countPostings counts what the index a frozen image reports would
// visit, giving up past max as Table.CountPostings does.
func (f *frozenImage) countPostings(a Access, max int) int {
	ci := f.schema.ColumnIndex(a.Column)
	n := 0
	switch {
	case ci < 0 || a.Rank != nil:
		return f.n
	case ci == f.dense && a.Keys != nil:
		for _, k := range a.Keys {
			if _, ok := f.denseSlot(k); ok {
				if n++; max > 0 && n > max {
					break
				}
			}
		}
	case ci == f.dense:
		first, last := denseRange(f.n, a.Lo, a.Hi)
		if n = last - first + 1; max > 0 && n > max {
			n = max + 1
		}
	case ci == f.hash && a.Keys != nil:
		var slots []int32
		for _, k := range a.Keys {
			slots = f.lookup(slots[:0], k)
			if n += len(slots); max > 0 && n > max {
				break
			}
		}
	default:
		return f.n
	}
	return n
}

// distinctKeys is DistinctKeys on the image: every dense key is one
// slot's.
func (f *frozenImage) distinctKeys(column string) (int, bool) {
	switch ci := f.schema.ColumnIndex(column); {
	case ci < 0:
		return 0, false
	case ci == f.dense:
		return f.n, true
	case ci == f.hash:
		return f.distinct, true
	}
	return 0, false
}
