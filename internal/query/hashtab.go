package query

import (
	"math/bits"

	"drugtree/internal/store"
)

// hashTab is the one hash table of the executor: the join build, GROUP
// BY, DISTINCT aggregates and IN (subquery) all key it. It maps
// multi-column keys to entry ids numbered densely in first-seen order.
// Slots are a power-of-two []int32 (entry id + 1; 0 is empty) kept at
// load ≤ ½ and probed linearly; each entry keeps its full hash, and its
// key cells live column-wise in typed store.Cols, cell e of every
// column being entry e's key (a key column takes the first batch's
// kind: an operator's columns keep one runtime kind across batches). A
// coded key column is hashed and compared by its codes, never its
// strings, so every row of a table keys it coded or none does (a join's
// probe and an IN set's needle are recoded to match: codedAs). A
// hash hit is only a candidate — key
// cells are compared, typed, on every hit (distinct keys can share a
// hash: Value.Hash widens integers to float64).
//
// Two key semantics exist. By default keys are equal exactly when
// store.Equal holds cell by cell — INT 1 matches FLOAT 1.0 — and a key
// with a NULL cell matches nothing, itself included: insert and find
// return -1 for it. A grouping table instead treats NULL as equal to
// NULL and demands equal kinds (1 and 1.0 are two groups), which is
// GROUP BY's notion of identity.
//
// insert mutates; find does not, so any number of goroutines may probe
// a table nobody is inserting into.
type hashTab struct {
	grouping bool
	slots    []int32
	hashes   []uint64
	keys     []store.Col
	// rehash, when set, post-processes every key hash. Tests set it to
	// force full-hash collisions; production code leaves it nil.
	rehash func(uint64) uint64
}

// newHashTab returns an empty table with room for capacity entries
// before anything in it grows.
func newHashTab(grouping bool, capacity int) *hashTab {
	n := 16
	if capacity > 8 {
		n = 1 << bits.Len(uint(2*capacity-1))
	}
	return &hashTab{grouping: grouping, slots: make([]int32, n), hashes: make([]uint64, 0, capacity)}
}

// len returns the number of entries.
func (t *hashTab) len() int { return len(t.hashes) }

// hashKey combines the key cells' hashes for row i of cols; ok is false
// when a cell is NULL and NULL keys do not match.
func (t *hashTab) hashKey(cols []*store.Col, i int) (h uint64, ok bool) {
	h = 14695981039346656037
	for _, c := range cols {
		if !t.grouping && c.Null[i] {
			return 0, false
		}
		h = h*1099511628211 ^ c.HashAt(i)
	}
	if t.rehash != nil {
		h = t.rehash(h)
	}
	return h, true
}

// cellsEqual compares cell i of a with cell j of b under the table's
// key semantics.
func cellsEqual(a *store.Col, i int, b *store.Col, j int, grouping bool) bool {
	if an, bn := a.Null[i], b.Null[j]; an || bn {
		return grouping && an && bn
	}
	if a.Kind == b.Kind {
		switch a.Kind {
		case store.KindInt, store.KindBool, store.KindCode:
			return a.Int[i] == b.Int[j]
		case store.KindFloat:
			x, y := a.Float[i], b.Float[j]
			return x == y || (x != x && y != y) // store.Compare: NaN equals itself
		case store.KindString:
			return a.Str[i] == b.Str[j]
		}
	}
	av, bv := a.Value(i), b.Value(j)
	if grouping && av.K != bv.K {
		return false
	}
	return store.Equal(av, bv)
}

// lookup walks the probe sequence of hash h and returns the entry whose
// key equals row i of cols, or -1 and the empty slot the walk ended on.
func (t *hashTab) lookup(h uint64, cols []*store.Col, i int) (id int32, slot int) {
	mask := len(t.slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := t.slots[s] - 1
		if e < 0 {
			return -1, s
		}
		if t.hashes[e] != h {
			continue
		}
		equal := true
		for c := range t.keys {
			if !cellsEqual(&t.keys[c], int(e), cols[c], i, t.grouping) {
				equal = false
				break
			}
		}
		if equal {
			return e, s
		}
	}
}

// find returns the entry whose key equals row i of cols, or -1.
func (t *hashTab) find(cols []*store.Col, i int) int32 {
	h, ok := t.hashKey(cols, i)
	if !ok || len(t.hashes) == 0 {
		return -1
	}
	id, _ := t.lookup(h, cols, i)
	return id
}

// insert returns the entry for row i of cols, adding it when the key is
// new; id is -1 for a key that matches nothing.
func (t *hashTab) insert(cols []*store.Col, i int) (id int32, added bool) {
	h, ok := t.hashKey(cols, i)
	if !ok {
		return -1, false
	}
	if t.keys == nil {
		t.keys = make([]store.Col, len(cols))
		for c, src := range cols {
			t.keys[c] = *store.NewCol(src.Kind, cap(t.hashes))
		}
	}
	id, slot := t.lookup(h, cols, i)
	if id >= 0 {
		return id, false
	}
	id = int32(len(t.hashes))
	t.hashes = append(t.hashes, h)
	for c, src := range cols {
		t.keys[c].AppendFrom(src, i)
	}
	t.slots[slot] = id + 1
	if 2*len(t.hashes) > len(t.slots) {
		t.grow()
	}
	return id, true
}

// insertBatch inserts every row of cols listed in sel and returns their
// entry ids, aligned with sel, in ids' storage when it is large enough.
func (t *hashTab) insertBatch(cols []*store.Col, sel []int, ids []int32) []int32 {
	if cap(ids) < len(sel) {
		ids = make([]int32, 0, len(sel))
	}
	ids = ids[:0]
	for _, i := range sel {
		id, _ := t.insert(cols, i)
		ids = append(ids, id)
	}
	return ids
}

// grow doubles the slot array and re-slots every entry by its stored
// hash; keys are not compared (entries are distinct already).
func (t *hashTab) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := len(t.slots) - 1
	for e, h := range t.hashes {
		s := int(h) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(e) + 1
	}
}

// codedAs returns the equality key column c, at the rows sel of b, in
// the form a hash table's key column holds it: coded or not. A c of that
// form is returned as it is; a coded c is decoded through d; a plain c
// is coded through d (Dict.Encode: a cell that is not a string, or a
// string d lacks, equals no coded cell). Only equality keys take it (a
// join's probe, an IN set's needle): a grouping's keys keep one form.
func codedAs(coded bool, b *batch, c *store.Col, sel []int, d *store.Dict) *store.Col {
	switch {
	case coded == (c.Kind == store.KindCode):
		return c
	case !coded:
		return decodedAt(b, c, sel, d)
	}
	out := b.newCol(store.KindCode)
	d.Encode(out, c, sel)
	return out
}
