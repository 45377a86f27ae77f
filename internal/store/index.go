package store

import "math"

// IndexType selects a secondary index implementation.
type IndexType uint8

const (
	// IndexHash supports equality probes only. On a STRING column it
	// codes the column (see dict); on another kind it is that kind's
	// B+-tree, read by key only.
	IndexHash IndexType = iota
	// IndexBTree supports equality, range scans, and ordered
	// iteration.
	IndexBTree
)

func (t IndexType) String() string {
	if t == IndexHash {
		return "hash"
	}
	return "btree"
}

// index is a secondary index over one column. A slot has exactly one
// posting — its stored value — from the commit that fills it until GC
// frees it, so a pinned snapshot can probe the index too; lookups check
// each candidate's visibility at the read's commit version. Stored cells
// are the column's kind or NULL; probe values may be any kind and
// compare as store.Compare orders them. Every lookup is exact: the IDs
// it hands out are those of the cells equal to the probe.
//
// An IndexHash over STRING is a code index: the column holds codes into
// the DB's dictionary and the index is one inline place per code
// (byCode), NULL rows under nullCode. Every other index is a B+-tree
// keyed on the column's own type, its NULL rows in list nullList beside
// it (no range reaches NULL); an IndexHash over another kind is one too,
// which no range walk reads.
type index struct {
	column int
	typ    IndexType
	kind   Kind // the column's

	dict   *Dict           // code index: the column's dictionary
	byCode []int64         // code index: per code, its rows' inline place (noRows when none)
	keys   int             // code index: non-NULL codes holding rows
	ints   *btree[int64]   // B+-tree over INT, and BOOL as 0/1
	floats *btree[float64] // B+-tree over FLOAT
	strs   *btree[string]  // B+-tree over STRING
	post   postings        // every form's lists of row IDs
}

const nullList = 0 // a B+-tree's list of the rows whose cell is NULL

// noRows is a code index's inline place for a code no row holds: no
// row ID and no list number (^noRows is past any list).
const noRows = math.MinInt64

// newIndex returns an empty index of the given type over column ci of
// kind k; a code index (typ IndexHash, k KindString) codes into d.
func newIndex(ci int, typ IndexType, k Kind, d *Dict) *index {
	ix := &index{column: ci, typ: typ, kind: k}
	switch {
	case typ == IndexHash && k == KindString:
		ix.dict = d
		return ix
	case k == KindFloat:
		ix.floats = newBTree[float64](&ix.post)
	case k == KindString:
		ix.strs = newBTree[string](&ix.post)
	default:
		ix.ints = newBTree[int64](&ix.post)
	}
	ix.post.lists = make([][]int64, 1) // nullList
	return ix
}

// insert files id under cell v in a B+-tree (a code index files by
// code: addCode).
func (ix *index) insert(v Value, id int64) {
	switch {
	case v.K == KindNull:
		ix.post.add(nullList, id)
	case ix.floats != nil:
		ix.floats.Insert(v.F, id)
	case ix.strs != nil:
		ix.strs.Insert(v.S, id)
	default:
		ix.ints.Insert(v.I, id)
	}
}

// remove takes id out from under cell v in a B+-tree (a code index:
// dropCode); an id not there changes nothing.
func (ix *index) remove(v Value, id int64) {
	switch {
	case v.K == KindNull:
		ix.post.remove(nullList, id)
	case ix.floats != nil:
		ix.floats.Delete(v.F, id)
	case ix.strs != nil:
		ix.strs.Delete(v.S, id)
	default:
		ix.ints.Delete(v.I, id)
	}
}

// codeOf returns the code a code index files cell v under, ok false for
// a cell no row can hold: a string never coded, a value of another kind.
func (ix *index) codeOf(v Value) (int32, bool) {
	switch v.K {
	case KindNull:
		return nullCode, true
	case KindString:
		return ix.dict.code(v.S)
	}
	return 0, false
}

// addCode files id under code c.
func (ix *index) addCode(c int32, id int64) {
	if n := int(c) + 1; n > len(ix.byCode) {
		// Grown by an eighth, as postings lists are: codes arrive one new
		// name at a time.
		grown := make([]int64, max(n, len(ix.byCode)+len(ix.byCode)/8+8))
		for i := copy(grown, ix.byCode); i < len(grown); i++ {
			grown[i] = noRows
		}
		ix.byCode = grown
	}
	at := &ix.byCode[c]
	if *at != noRows {
		ix.post.file(at, id)
		return
	}
	*at = id
	if c != nullCode {
		ix.keys++
	}
}

// dropCode takes id out from under code c; an id not there changes
// nothing.
func (ix *index) dropCode(c int32, id int64) {
	if int(c) >= len(ix.byCode) || ix.byCode[c] == noRows {
		return
	}
	if _, empty := ix.post.unfile(&ix.byCode[c], id); empty {
		ix.byCode[c] = noRows
		if c != nullCode {
			ix.keys--
		}
	}
}

// getCode returns the IDs filed under code c.
func (ix *index) getCode(c int32) []int64 {
	if int(c) >= len(ix.byCode) || ix.byCode[c] == noRows {
		return nil
	}
	return ix.post.inline(ix.byCode, int(c))
}

// get returns the IDs of the rows whose cells equal v.
func (ix *index) get(v Value) []int64 {
	switch {
	case ix.dict != nil:
		if c, ok := ix.codeOf(v); ok {
			return ix.getCode(c)
		}
		return nil
	case v.K == KindNull:
		return ix.post.lists[nullList]
	case v.K != ix.kind:
		// A probe of another kind equals a key only if it bounds the keys
		// from both sides at the same one (FLOAT 2.0 on an INT column).
		lo, los := keyBound(ix.kind, v, false)
		hi, his := keyBound(ix.kind, v, true)
		if los != boundKey || his != boundKey || Compare(lo, hi) != 0 {
			return nil
		}
		v = lo
	}
	switch {
	case ix.floats != nil:
		return ix.floats.Get(v.F)
	case ix.strs != nil:
		return ix.strs.Get(v.S)
	}
	return ix.ints.Get(v.I)
}

// getKey returns the IDs filed under probe k, a rank under rk when rk
// is set.
func (ix *index) getKey(rk *ranking, k Value) []int64 {
	if rk == nil {
		return ix.get(k)
	}
	if r, last := denseRange(len(rk.codeOf), &k, &k); r == last && rk.codeOf[r] != nullCode {
		return ix.getCode(rk.codeOf[r])
	}
	return nil
}

// distinct returns how many distinct non-NULL keys the index holds.
func (ix *index) distinct() int {
	switch {
	case ix.dict != nil:
		return ix.keys
	case ix.floats != nil:
		return ix.floats.keys
	case ix.strs != nil:
		return ix.strs.keys
	}
	return ix.ints.keys
}

// walk visits the postings of a B+-tree's non-NULL keys in [lo, hi]
// (nil is open) in key order, descending when desc is set, until fn
// returns false.
func (ix *index) walk(lo, hi *Value, desc bool, fn func(ids []int64) bool) {
	var buf [2]Value
	lo, hi, ok := ix.keyRange(lo, hi, &buf)
	switch {
	case !ok:
	case ix.floats != nil:
		walkKeys(ix.floats, lo, hi, func(v Value) float64 { return v.F }, desc, fn)
	case ix.strs != nil:
		walkKeys(ix.strs, lo, hi, func(v Value) string { return v.S }, desc, fn)
	default:
		walkKeys(ix.ints, lo, hi, func(v Value) int64 { return v.I }, desc, fn)
	}
}

// walkRanks visits a code index's postings by rank under rk: each rank
// in [lo, hi] (INT bounds, nil open; see denseRange), ascending or, with
// desc, descending, hands fn the rows of the code it names, skipping
// ranks no row holds, until fn returns false.
func (ix *index) walkRanks(rk *ranking, lo, hi *Value, desc bool, fn func(ids []int64) bool) {
	first, last := denseRange(len(rk.codeOf), lo, hi)
	for i := range last - first + 1 {
		r := first + i
		if desc {
			r = last - i
		}
		if c := rk.codeOf[r]; c != nullCode {
			if ids := ix.getCode(c); len(ids) > 0 && !fn(ids) {
				return
			}
		}
	}
}

// count returns the postings of a B+-tree's non-NULL keys in [lo, hi]
// (nil is open) as an ascending walk would sum them, stopping at the
// first key that takes the sum past max (≤ 0 never stops).
func (ix *index) count(lo, hi *Value, max int) int {
	var buf [2]Value
	lo, hi, ok := ix.keyRange(lo, hi, &buf)
	switch {
	case !ok:
		return 0
	case ix.floats != nil:
		return countKeys(ix.floats, lo, hi, func(v Value) float64 { return v.F }, max)
	case ix.strs != nil:
		return countKeys(ix.strs, lo, hi, func(v Value) string { return v.S }, max)
	}
	return countKeys(ix.ints, lo, hi, func(v Value) int64 { return v.I }, max)
}

// keyRange restates the bounds [lo, hi] (nil is open) in the column's
// kind, into buf; ok is false when no key can lie between them.
func (ix *index) keyRange(lo, hi *Value, buf *[2]Value) (klo, khi *Value, ok bool) {
	if lo != nil {
		switch v, state := keyBound(ix.kind, *lo, false); state {
		case boundEmpty:
			return nil, nil, false
		case boundKey:
			buf[0], klo = v, &buf[0]
		}
	}
	if hi != nil {
		switch v, state := keyBound(ix.kind, *hi, true); state {
		case boundEmpty:
			return nil, nil, false
		case boundKey:
			buf[1], khi = v, &buf[1]
		}
	}
	return klo, khi, true
}

// treeBounds restates bounds of the column's kind as B+-tree keys, whose
// payload key extracts.
func treeBounds[K btreeKey](lo, hi *Value, key func(Value) K, buf *[2]K) (plo, phi *K) {
	if lo != nil {
		buf[0], plo = key(*lo), &buf[0]
	}
	if hi != nil {
		buf[1], phi = key(*hi), &buf[1]
	}
	return plo, phi
}

// walkKeys walks t between bounds of the column's kind.
func walkKeys[K btreeKey](t *btree[K], lo, hi *Value, key func(Value) K, desc bool, fn func(ids []int64) bool) {
	var buf [2]K
	plo, phi := treeBounds(lo, hi, key, &buf)
	t.walk(plo, phi, desc, func(_ K, ids []int64) bool { return fn(ids) })
}

// countKeys counts t's postings between bounds of the column's kind.
func countKeys[K btreeKey](t *btree[K], lo, hi *Value, key func(Value) K, max int) int {
	var buf [2]K
	plo, phi := treeBounds(lo, hi, key, &buf)
	return t.count(plo, phi, max)
}

// boundState says how a probe value bounds the keys of a typed column.
type boundState uint8

const (
	boundKey   boundState = iota // by a value of the column's kind
	boundOpen                    // not at all: every key is inside
	boundEmpty                   // entirely: no key is inside
)

// keyBound restates v, a lower (key ≥ v) or upper (key ≤ v) bound in
// store.Compare's order, as a bound of kind col on the same keys. An INT
// column rounds a fractional FLOAT bound inward; a value that sorts
// wholly before or after the column's kind leaves the bound open or
// empty. (An INT key and a FLOAT bound further than 2^53 from zero
// compare here as integers, in Compare through a rounding widening.)
func keyBound(col Kind, v Value, upper bool) (Value, boundState) {
	below := false // v sorts before every key (else after every key)
	switch {
	case v.K == col:
		return v, boundKey
	case col == KindFloat && v.K == KindInt:
		return FloatValue(float64(v.I)), boundKey
	case col == KindInt && v.K == KindFloat:
		switch f := v.F; {
		case f != f || f < -(1<<63):
			below = true
		case f >= 1<<63:
		case upper:
			return IntValue(int64(math.Floor(f))), boundKey
		default:
			return IntValue(int64(math.Ceil(f))), boundKey
		}
	default:
		below = Compare(v, Value{K: col}) < 0 // across kinds only the kinds order
	}
	if below == upper {
		return Value{}, boundEmpty
	}
	return Value{}, boundOpen
}

// --- postings ---

// postings holds an index's lists of row IDs: one per key held by two
// rows or more (the key's inline place, in a code index's byCode or a
// leaf, holds ^its number) and a B+-tree index's NULL rows (nullList).
// pos records each slot's position in its list, so a removal
// moves the last ID into the hole without a search; a slot past the end
// of pos is at 0, so an index of unique keys never allocates it. free
// holds the numbers of released lists, each empty, for reuse.
type postings struct {
	lists [][]int64
	pos   []int32
	free  []int32
}

// place records that id sits at position at of its list.
func (p *postings) place(id int64, at int) {
	s := int(uint32(id))
	if s >= len(p.pos) {
		if at == 0 {
			return
		}
		p.pos = append(p.pos, make([]int32, s+1-len(p.pos))...)
	}
	p.pos[s] = int32(at)
}

// add appends id to list m. A full list grows by an eighth, so that
// under churn, which refills what GC frees, its capacity stays near its
// high mark instead of doubling past it; the 8 IDs more, rounded down to
// whole 64-byte steps (size classes to 1 KB), keep a short list from
// regrowing at every row.
func (p *postings) add(m int32, id int64) {
	list := p.lists[m]
	if len(list) == cap(list) {
		list = append(make([]int64, 0, (len(list)+len(list)/8+8)&^7), list...)
	}
	p.place(id, len(list))
	p.lists[m] = append(list, id)
}

// remove moves list m's last ID into id's recorded position and reports
// whether id was there; if not, nothing changes.
func (p *postings) remove(m int32, id int64) bool {
	list, at := p.lists[m], 0
	if s := int(uint32(id)); s < len(p.pos) {
		at = int(p.pos[s])
	}
	if at >= len(list) || list[at] != id {
		return false
	}
	last := list[len(list)-1]
	list[at] = last
	p.place(last, at)
	p.lists[m] = list[:len(list)-1]
	return true
}

// file adds id to the key whose inline place is *inline; the key's
// second row moves the first into a list.
func (p *postings) file(inline *int64, id int64) {
	if *inline >= 0 {
		m := int32(len(p.lists))
		if n := len(p.free); n > 0 {
			m, p.free = p.free[n-1], p.free[:n-1]
		} else {
			p.lists = append(p.lists, nil)
		}
		p.lists[m] = append(make([]int64, 0, 2), *inline)
		p.place(*inline, 0)
		*inline = ^int64(m)
	}
	p.add(int32(^*inline), id)
}

// unfile removes id from the key whose inline place is *inline; a list
// left with one ID hands it back to the place and is released. It
// reports whether id was there and whether the key is now empty.
func (p *postings) unfile(inline *int64, id int64) (found, empty bool) {
	if *inline >= 0 {
		return *inline == id, *inline == id
	}
	m := int32(^*inline)
	if found = p.remove(m, id); found && len(p.lists[m]) == 1 {
		*inline, p.lists[m] = p.lists[m][0], nil
		p.free = append(p.free, m)
	}
	return found, false
}

// inline returns the IDs of the key whose inline place is ids[i]: its
// list, or the one ID as a window of ids.
func (p *postings) inline(ids []int64, i int) []int64 {
	if ids[i] < 0 {
		return p.lists[^ids[i]]
	}
	return ids[i : i+1 : i+1]
}
