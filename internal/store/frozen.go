package store

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// FrozenImage is the whole content of a frozen table, handed to
// DB.PublishFrozen: one vector per schema column in slot order, all of
// one length, each of its column's kind with no NULL cell (Null nil);
// an INT or BOOL column holds Int or I32. The table takes the vectors
// over and nothing writes them afterwards, so two columns may share a
// vector and a vector may be its owner's own array.
type FrozenImage struct {
	Cols []Col
	// Dense, when set, names an INT column that holds no vector: its
	// cell in slot s is s. It reports as a B+-tree index, and a key
	// probe or range walk on it is slot arithmetic.
	Dense string
	// Hash, when set, names a column that reports as a hash index and is
	// probed through a slot table.
	Hash string
}

// frozenImage is one published image of a frozen table. It is
// immutable, so reads need no lock and a view keeps the image it pinned.
type frozenImage struct {
	name    string
	schema  *Schema
	version int64
	cols    []Col
	n       int
	dense   int // column position of FrozenImage.Dense, -1 for none
	hash    int // column position of FrozenImage.Hash, -1 for none
	indexes []IndexSpec
	// slots is the hash column's lookup: an open-addressed table of
	// slot+1 (0 is empty), probed linearly from a Fibonacci-hashed home,
	// at most 7/8 full. It is filled in slot order and never deleted
	// from, so the slots holding one value lie along its probe run in
	// ascending order, the order a hash index hands out their postings.
	slots    []int32
	shift    uint8
	distinct int // distinct cells of the hash column, counted by buildSlots
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
		t = NewTable(name, schema)
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

// newFrozenImage checks img against the schema and builds its lookups.
func newFrozenImage(name string, schema *Schema, img FrozenImage) (*frozenImage, error) {
	if len(img.Cols) != schema.Len() {
		return nil, fmt.Errorf("store: frozen table %s: %d vectors for %d columns", name, len(img.Cols), schema.Len())
	}
	f := &frozenImage{name: name, schema: schema, cols: img.Cols, n: -1, dense: -1, hash: -1}
	if img.Dense != "" {
		if f.dense = schema.ColumnIndex(img.Dense); f.dense < 0 || schema.Columns[f.dense].Kind != KindInt {
			return nil, fmt.Errorf("store: frozen table %s: dense column %q is not an INT column", name, img.Dense)
		}
		f.indexes = append(f.indexes, IndexSpec{Column: img.Dense, Type: IndexBTree})
	}
	for c := range img.Cols {
		col, want := &img.Cols[c], schema.Columns[c]
		n := len(col.Int) + len(col.I32) // holding both miscounts the cells
		switch col.Kind {
		case KindFloat:
			n = len(col.Float)
		case KindString:
			n = len(col.Str)
		}
		switch {
		case col.Kind != want.Kind:
			return nil, fmt.Errorf("store: frozen table %s: column %s holds %v, want %v", name, want.Name, col.Kind, want.Kind)
		case col.Null != nil || col.Vals != nil:
			return nil, fmt.Errorf("store: frozen table %s: column %s has a null mask or generic cells", name, want.Name)
		case c == f.dense && (col.Int != nil || col.I32 != nil):
			return nil, fmt.Errorf("store: frozen table %s: dense column %s holds a vector; its cell in slot s is s", name, want.Name)
		case c == f.dense:
			continue
		case f.n >= 0 && n != f.n:
			return nil, fmt.Errorf("store: frozen table %s: column %s holds %d cells, want %d", name, want.Name, n, f.n)
		}
		f.n = n
	}
	switch {
	case f.n < 0:
		return nil, fmt.Errorf("store: frozen table %s: no column but the dense one gives the row count", name)
	case f.n >= math.MaxInt32:
		return nil, fmt.Errorf("store: frozen table %s: %d rows exceed the slot range", name, f.n)
	}
	if img.Hash != "" {
		if f.hash = schema.ColumnIndex(img.Hash); f.hash < 0 || f.hash == f.dense {
			return nil, fmt.Errorf("store: frozen table %s: hash column %q is not a column or is the dense one", name, img.Hash)
		}
		f.buildSlots()
		f.indexes = append(f.indexes, IndexSpec{Column: img.Hash, Type: IndexHash})
	}
	slices.SortFunc(f.indexes, func(a, b IndexSpec) int { return cmp.Compare(a.Column, b.Column) })
	return f, nil
}

// buildSlots fills the hash column's slot table and counts its distinct
// cells: equal cells share a probe run, so a cell is new when none
// before it on its run equals it. A byte of each filled position's hash,
// kept while it runs, spares it reading all but 1 in 256 of the unequal
// cells on the way.
func (f *frozenImage) buildSlots() {
	size := hashMinSize
	for f.n*8 > size*7 {
		size *= 2
	}
	f.slots, f.shift = make([]int32, size), uint8(64-bits.TrailingZeros(uint(size)))
	tags := make([]uint8, size)
	col := &f.cols[f.hash]
	for s := 0; s < f.n; s++ {
		v := col.stored(s)
		x := v.Hash()
		i, fresh := f.home(x), true
		for ; f.slots[i] != 0; i = (i + 1) & (size - 1) {
			fresh = fresh && (tags[i] != uint8(x) || !Equal(col.stored(int(f.slots[i]-1)), v))
		}
		f.slots[i], tags[i] = int32(s)+1, uint8(x)
		if fresh {
			f.distinct++
		}
	}
}

// home is where the probe run of hash x starts (hashIndex.home's rule).
func (f *frozenImage) home(x uint64) int { return int(x * 0x9E3779B97F4A7C15 >> f.shift) }

// probe calls fn with every slot whose hash-column cell equals k, in
// ascending order, until fn returns false; it reports whether fn never
// did.
func (f *frozenImage) probe(k Value, fn func(s int) bool) bool {
	col, mask := &f.cols[f.hash], len(f.slots)-1
	for i := f.home(k.Hash()); f.slots[i] != 0; i = (i + 1) & mask {
		if s := int(f.slots[i] - 1); Equal(col.stored(s), k) && !fn(s) {
			return false
		}
	}
	return true
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

// denseRange resolves a range walk on the dense column to the slots
// [first, last] (empty when first > last), bounds restated in INT as a
// B+-tree walk restates them.
func (f *frozenImage) denseRange(lo, hi *Value) (first, last int) {
	a, b := int64(0), int64(f.n-1)
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
// slot table. Any other access is refused, as on a stored table: the
// columns named here are the indexes the image reports.
func (f *frozenImage) walk(poll func() error, a Access, fn func(s int) bool) error {
	ci := -1
	if a.Column != "" {
		ci = f.schema.ColumnIndex(a.Column)
		if ci < 0 || ci != f.dense && (ci != f.hash || a.Keys == nil) {
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
		first, last := f.denseRange(a.Lo, a.Hi)
		if a.Desc {
			for s := last; s >= first && visit(s); s-- {
			}
		} else {
			for s := first; s <= last && visit(s); s++ {
			}
		}
	default:
		for _, k := range a.Keys {
			if !f.probe(k, visit) {
				break
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
	case ci < 0:
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
		first, last := f.denseRange(a.Lo, a.Hi)
		if n = last - first + 1; max > 0 && n > max {
			n = max + 1
		}
	case ci == f.hash && a.Keys != nil:
		for _, k := range a.Keys {
			f.probe(k, func(int) bool { n++; return true })
			if max > 0 && n > max {
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
