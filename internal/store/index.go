package store

import (
	"math"
	"math/bits"
)

// IndexType selects a secondary index implementation.
type IndexType uint8

const (
	// IndexHash supports equality probes only.
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
// each candidate's visibility at the read's commit version.
//
// An IndexHash is one open-addressed table. An IndexBTree is a B+-tree
// keyed on the column's own type; rows whose cell is NULL are postings
// held apart from it (NULL sorts before every key and no range reaches
// it). Stored cells are the column's kind or NULL; probe values may be
// any kind and compare as store.Compare orders them.
//
// A rank index (Table.CreateRankIndex) orders a STRING column's rows by
// rank(cell), a small integer, as an IndexBTree over INT keys would:
// keys, bounds and probes are ranks, and a NULL cell, or one rank does
// not know, has no posting. It is an array of postings lists indexed by
// rank, and it records where in its list each slot's ID sits, so that a
// removal swaps the last ID into the hole without searching.
type index struct {
	column int
	typ    IndexType
	kind   Kind // the column's

	hash   *hashIndex      // IndexHash
	ints   *btree[int64]   // IndexBTree over INT, and BOOL as 0/1
	floats *btree[float64] // IndexBTree over FLOAT
	strs   *btree[string]  // IndexBTree over STRING
	nulls  []int64         // IndexBTree: the rows with a NULL cell

	rank   func(string) (int64, bool) // rank index: a cell's key
	source any                        // rank index: what rank derives from (Table.RankedBy)
	lists  [][]int64                  // rank index: the postings of each rank
	pos    []int32                    // rank index: by slot, its ID's position in its list
}

// newIndex returns an empty index of the given type over column ci of
// kind k, with room for capacity rows.
func newIndex(ci int, typ IndexType, k Kind, capacity int) *index {
	ix := &index{column: ci, typ: typ, kind: k}
	switch {
	case typ == IndexHash:
		ix.hash = newHashIndex(capacity)
	case k == KindFloat:
		ix.floats = newBTree[float64]()
	case k == KindString:
		ix.strs = newBTree[string]()
	default:
		ix.ints = newBTree[int64]()
	}
	return ix
}

// rankOf returns the rank of a cell, ok false for a cell with no
// posting.
func (ix *index) rankOf(v Value) (int, bool) {
	k, ok := ix.rank(v.S)
	return int(k), ok && v.K == KindString && k >= 0 && k < int64(len(ix.lists))
}

func (ix *index) insert(v Value, id int64) {
	if ix.rank != nil {
		if k, ok := ix.rankOf(v); ok {
			s := int(uint32(id))
			if s >= len(ix.pos) {
				ix.pos = append(ix.pos, make([]int32, s+1-len(ix.pos))...)
			}
			list := ix.lists[k]
			if len(list) == cap(list) { // grow by an eighth: churn refills what GC frees
				list = append(make([]int64, 0, len(list)+len(list)/8+1), list...)
			}
			ix.pos[s], ix.lists[k] = int32(len(list)), append(list, id)
		}
		return
	}
	switch {
	case ix.hash != nil:
		ix.hash.insert(v, id)
	case v.K == KindNull:
		ix.nulls = append(ix.nulls, id)
	case ix.floats != nil:
		ix.floats.Insert(v.F, id)
	case ix.strs != nil:
		ix.strs.Insert(v.S, id)
	default:
		ix.ints.Insert(v.I, id)
	}
}

func (ix *index) remove(v Value, id int64) {
	if ix.rank != nil {
		if k, ok := ix.rankOf(v); ok {
			list := ix.lists[k]
			at, last := ix.pos[uint32(id)], list[len(list)-1]
			list[at], ix.pos[uint32(last)] = last, at
			ix.lists[k] = list[:len(list)-1]
		}
		return
	}
	switch {
	case ix.hash != nil:
		ix.hash.remove(v, id)
	case v.K == KindNull:
		ix.nulls = removePosting(ix.nulls, id)
	case ix.floats != nil:
		ix.floats.Delete(v.F, id)
	case ix.strs != nil:
		ix.strs.Delete(v.S, id)
	default:
		ix.ints.Delete(v.I, id)
	}
}

// get returns candidate IDs for cells equal to v. exact reports that
// every candidate's cell does equal v; a hash table hands out every row
// whose cell shares v's hash, for the caller to recheck.
func (ix *index) get(v Value) (ids []int64, exact bool) {
	switch {
	case ix.hash != nil:
		return ix.hash.get(v), false
	case v.K == KindNull:
		return ix.nulls, true
	case v.K != ix.kind:
		// A probe of another kind equals a key only if it bounds the keys
		// from both sides at the same one (FLOAT 2.0 on an INT column).
		lo, los := keyBound(ix.kind, v, false)
		hi, his := keyBound(ix.kind, v, true)
		if los != boundKey || his != boundKey || Compare(lo, hi) != 0 {
			return nil, true
		}
		v = lo
	}
	switch {
	case ix.floats != nil:
		return ix.floats.Get(v.F), true
	case ix.strs != nil:
		return ix.strs.Get(v.S), true
	case ix.lists != nil:
		if k, last := denseRange(len(ix.lists), &v, &v); k == last {
			return ix.lists[k], true
		}
		return nil, true
	}
	return ix.ints.Get(v.I), true
}

// distinct returns how many distinct non-NULL keys the index holds.
func (ix *index) distinct() int {
	switch {
	case ix.hash != nil:
		return ix.hash.distinct()
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
	case ix.lists != nil:
		first, last := denseRange(len(ix.lists), lo, hi)
		for i := range last - first + 1 {
			k := first + i
			if desc {
				k = last - i
			}
			if len(ix.lists[k]) > 0 && !fn(ix.lists[k]) {
				return
			}
		}
	case ix.floats != nil:
		walkKeys(ix.floats, lo, hi, func(v Value) float64 { return v.F }, desc, fn)
	case ix.strs != nil:
		walkKeys(ix.strs, lo, hi, func(v Value) string { return v.S }, desc, fn)
	default:
		walkKeys(ix.ints, lo, hi, func(v Value) int64 { return v.I }, desc, fn)
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
	case ix.lists != nil:
		first, last := denseRange(len(ix.lists), lo, hi)
		n := 0
		for _, list := range ix.lists[first : last+1] {
			if n += len(list); max > 0 && n > max {
				break
			}
		}
		return n
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

// removePosting swap-deletes id from a postings list.
func removePosting(post []int64, id int64) []int64 {
	for i, p := range post {
		if p == id {
			post[i] = post[len(post)-1]
			return post[:len(post)-1]
		}
	}
	return post
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

// --- hash index ---

// hashIndex maps the hash of a cell to the IDs of the rows whose cell
// has that hash (colliding values share a posting; readers recheck the
// stored cell). It is one open-addressed table, linear probing from a
// Fibonacci-hashed home position, kept between 1/4 and 7/8 full: a
// hash held by one row — the common case, a unique column — costs its
// 16-byte entry and nothing else; only a hash held by a second row gets
// a postings slice. Deletion shifts the rest of the probe run back over
// the hole, so churn leaves no tombstones and probe runs do not grow
// with the table's age.
type hashIndex struct {
	hashes []uint64  // 0 marks an empty position (a cell hashing to 0 is filed under 1)
	ids    []int64   // parallel: ≥ 0 the one row ID, inline; < 0 the postings are many[^ids[i]]
	many   [][]int64 // postings of the hashes held by ≥ 2 rows
	spare  []int32   // positions of many free for reuse
	used   int       // occupied positions
	shift  uint8     // 64 - log2(len(hashes))

	// hashOf, when set, replaces Value.Hash: tests force full-hash
	// collisions through it.
	hashOf func(Value) uint64
}

const hashMinSize = 8

// newHashIndex returns a table that holds capacity distinct hashes
// without growing.
func newHashIndex(capacity int) *hashIndex {
	size := hashMinSize
	for capacity*8 > size*7 {
		size *= 2
	}
	h := &hashIndex{}
	h.resize(size)
	return h
}

func (h *hashIndex) hash(v Value) uint64 {
	if h.hashOf != nil {
		return max(h.hashOf(v), 1)
	}
	return max(v.Hash(), 1)
}

// home is where the probe run of hash x starts. The multiplication
// spreads FNV's weak high bits before the top log2(size) are taken.
func (h *hashIndex) home(x uint64) int { return int(x * 0x9E3779B97F4A7C15 >> h.shift) }

// find returns the position holding hash x, or the empty position that
// ends its probe run.
func (h *hashIndex) find(x uint64) (pos int, found bool) {
	mask := len(h.hashes) - 1
	for i := h.home(x); ; i = (i + 1) & mask {
		switch h.hashes[i] {
		case x:
			return i, true
		case 0:
			return i, false
		}
	}
}

// resize rehashes every entry into a table of size positions (a power
// of two); entries carry their hash, so no cell is read.
func (h *hashIndex) resize(size int) {
	hashes, ids := h.hashes, h.ids
	h.hashes, h.ids = make([]uint64, size), make([]int64, size)
	h.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i, x := range hashes {
		if x != 0 {
			pos, _ := h.find(x)
			h.hashes[pos], h.ids[pos] = x, ids[i]
		}
	}
}

func (h *hashIndex) insert(v Value, id int64) {
	if (h.used+1)*8 > len(h.hashes)*7 {
		h.resize(2 * len(h.hashes))
	}
	x := h.hash(v)
	pos, found := h.find(x)
	switch {
	case !found:
		h.hashes[pos], h.ids[pos] = x, id
		h.used++
	case h.ids[pos] < 0:
		m := ^h.ids[pos]
		h.many[m] = append(h.many[m], id)
	default: // the hash's second row: the pair moves to a postings slice
		post := []int64{h.ids[pos], id}
		if n := len(h.spare); n > 0 {
			m := h.spare[n-1]
			h.spare = h.spare[:n-1]
			h.many[m], h.ids[pos] = post, ^int64(m)
		} else {
			h.many = append(h.many, post)
			h.ids[pos] = ^int64(len(h.many) - 1)
		}
	}
}

func (h *hashIndex) remove(v Value, id int64) {
	pos, found := h.find(h.hash(v))
	if !found {
		return
	}
	if m := ^h.ids[pos]; m >= 0 {
		post := removePosting(h.many[m], id)
		if h.many[m] = post; len(post) == 1 { // back to one inline posting
			h.ids[pos], h.many[m] = post[0], nil
			h.spare = append(h.spare, int32(m))
		}
		return
	}
	if h.ids[pos] != id {
		return
	}
	// Close the hole: each later entry of the run moves back into it
	// unless its home lies after the hole, cyclically.
	mask := len(h.hashes) - 1
	for j := (pos + 1) & mask; h.hashes[j] != 0; j = (j + 1) & mask {
		if (j-h.home(h.hashes[j]))&mask >= (j-pos)&mask {
			h.hashes[pos], h.ids[pos] = h.hashes[j], h.ids[j]
			pos = j
		}
	}
	h.hashes[pos], h.ids[pos] = 0, 0
	h.used--
	if size := len(h.hashes); size > hashMinSize && h.used*4 < size {
		h.resize(size / 2)
	}
}

// distinct returns how many distinct non-NULL hashes the table holds:
// its occupied positions, less the NULL cell's.
func (h *hashIndex) distinct() int {
	if _, null := h.find(h.hash(NullValue())); null {
		return h.used - 1
	}
	return h.used
}

// get returns the IDs filed under v's hash; the one inline ID is handed
// out as a window of the table.
func (h *hashIndex) get(v Value) []int64 {
	pos, found := h.find(h.hash(v))
	switch {
	case !found:
		return nil
	case h.ids[pos] < 0:
		return h.many[^h.ids[pos]]
	}
	return h.ids[pos : pos+1 : pos+1]
}
