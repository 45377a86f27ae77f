package store

import "cmp"

// btreeKey is what a B+-tree can be keyed on: the machine form of a
// column's cells — int64 for INT (and BOOL as 0/1), float64, string.
type btreeKey interface{ int64 | float64 | string }

// btree is an in-memory B+ tree mapping the non-NULL cells of one
// column, in the column's own type, to row IDs: equality probes, range
// scans and ordered walks, in either direction along a doubly chained
// leaf level. Keys are unique and ordered by cmp.Compare, which is
// store.Compare's order on cells of one kind: -0 and +0 are one key, NaN
// is one key below every other float.
//
// A leaf's key and id arrays are allocated once at full capacity. A
// key's only row ID sits inline in ids; a key held by more rows keeps
// ^(its list's number) there, its IDs in the index's postings, so a
// split moves IDs only. A full leaf at either end of the chain splits at
// that end when the new key falls outside it, so monotone loads leave
// every leaf full instead of half.
type btree[K btreeKey] struct {
	root *btreeNode[K]
	keys int       // distinct keys held; Insert and Delete keep it
	post *postings // the index's: the lists of the keys held by ≥ 2 rows
}

const (
	// 64 keys of 8 bytes (16 for a string header) and 64 row IDs each
	// fill an allocation size class exactly.
	btreeOrder   = 65             // max children per interior node
	btreeMaxKeys = btreeOrder - 1 // max keys per node
)

type btreeNode[K btreeKey] struct {
	keys     []K
	children []*btreeNode[K] // nil for leaves
	ids      []int64         // leaf only: ≥ 0 key i's one row ID; < 0 ^(the number of its list)
	listed   int             // leaf only: how many of ids are list numbers
	next     *btreeNode[K]   // leaf chain, ascending
	prev     *btreeNode[K]   // leaf chain, descending
}

func (n *btreeNode[K]) isLeaf() bool { return n.children == nil }

func newLeaf[K btreeKey]() *btreeNode[K] {
	return &btreeNode[K]{keys: make([]K, 0, btreeMaxKeys), ids: make([]int64, 0, btreeMaxKeys)}
}

func newBTree[K btreeKey](post *postings) *btree[K] {
	return &btree[K]{root: newLeaf[K](), post: post}
}

// findKey returns the position of the first key ≥ k in node n.
func findKey[K btreeKey](n *btreeNode[K], k K) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmp.Less(n.keys[mid], k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the index of the child of interior node n that
// covers k: a separator equal to k sends k right.
func childFor[K btreeKey](n *btreeNode[K], k K) int {
	i := findKey(n, k)
	if i < len(n.keys) && cmp.Compare(k, n.keys[i]) == 0 {
		i++
	}
	return i
}

// Insert adds rowID under key k.
func (t *btree[K]) Insert(k K, rowID int64) {
	if len(t.root.keys) == btreeMaxKeys {
		newRoot := &btreeNode[K]{children: []*btreeNode[K]{t.root}}
		t.splitChild(newRoot, 0, k)
		t.root = newRoot
	}
	n := t.root
	for !n.isLeaf() {
		i := childFor(n, k)
		if len(n.children[i].keys) == btreeMaxKeys {
			t.splitChild(n, i, k)
			if !cmp.Less(k, n.keys[i]) {
				i++
			}
		}
		n = n.children[i]
	}
	i := findKey(n, k)
	if i < len(n.keys) && cmp.Compare(n.keys[i], k) == 0 {
		if n.ids[i] >= 0 {
			n.listed++
		}
		t.post.file(&n.ids[i], rowID)
		return
	}
	var zero K
	t.keys++
	n.keys = append(n.keys, zero)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = k
	n.ids = append(n.ids, 0)
	copy(n.ids[i+1:], n.ids[i:])
	n.ids[i] = rowID
}

// splitChild splits the full child at index i of parent p to make room
// for k.
func (t *btree[K]) splitChild(p *btreeNode[K], i int, k K) {
	child := p.children[i]
	mid := btreeMaxKeys / 2
	var sib *btreeNode[K]
	var up K
	if child.isLeaf() {
		// Leaf split: sibling takes keys[mid:], separator is the
		// sibling's first key (B+ tree: keys stay in leaves). At either
		// end of the chain a key beyond the leaf moves the cut to that
		// end: the full leaf stays full and k starts the empty one.
		up = k
		switch {
		case child.next == nil && cmp.Less(child.keys[len(child.keys)-1], k):
			mid = len(child.keys)
		case child.prev == nil && cmp.Less(k, child.keys[0]):
			mid = 0
		}
		sib = newLeaf[K]()
		sib.keys = append(sib.keys, child.keys[mid:]...)
		sib.ids = append(sib.ids, child.ids[mid:]...)
		sib.next, sib.prev = child.next, child
		if sib.next != nil {
			sib.next.prev = sib
		}
		clear(child.keys[mid:]) // drop the moved keys' string references
		child.keys, child.ids = child.keys[:mid], child.ids[:mid]
		for _, id := range sib.ids {
			if id < 0 {
				sib.listed++
			}
		}
		child.listed -= sib.listed
		child.next = sib
		if len(sib.keys) > 0 {
			up = sib.keys[0]
		}
	} else {
		// Interior split: middle key moves up.
		up = child.keys[mid]
		sib = &btreeNode[K]{
			keys:     append([]K(nil), child.keys[mid+1:]...),
			children: append([]*btreeNode[K](nil), child.children[mid+1:]...),
		}
		child.keys = child.keys[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
	}
	var zero K
	p.keys = append(p.keys, zero)
	copy(p.keys[i+1:], p.keys[i:])
	p.keys[i] = up
	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = sib
}

// leafFor descends to the leaf that would contain k.
func (t *btree[K]) leafFor(k K) *btreeNode[K] {
	n := t.root
	for !n.isLeaf() {
		n = n.children[childFor(n, k)]
	}
	return n
}

// Get returns the postings list for k, or nil.
func (t *btree[K]) Get(k K) []int64 {
	n := t.leafFor(k)
	i := findKey(n, k)
	if i < len(n.keys) && cmp.Compare(n.keys[i], k) == 0 {
		return t.post.inline(n.ids, i)
	}
	return nil
}

// Delete removes rowID from key k, dropping the key once it holds no
// row, and reports whether rowID was there. Nodes may become sparse:
// the tree never merges them, which costs lookups nothing.
func (t *btree[K]) Delete(k K, rowID int64) bool {
	n := t.leafFor(k)
	i := findKey(n, k)
	if i >= len(n.keys) || cmp.Compare(n.keys[i], k) != 0 {
		return false
	}
	listed := n.ids[i] < 0
	found, empty := t.post.unfile(&n.ids[i], rowID)
	if listed && n.ids[i] >= 0 {
		n.listed--
	}
	if empty {
		var zero K
		t.keys--
		copy(n.keys[i:], n.keys[i+1:])
		n.keys[len(n.keys)-1] = zero
		n.keys = n.keys[:len(n.keys)-1]
		copy(n.ids[i:], n.ids[i+1:])
		n.ids = n.ids[:len(n.ids)-1]
	}
	return found
}

// edgeLeaf returns the leftmost (last=false) or rightmost leaf.
func (t *btree[K]) edgeLeaf(last bool) *btreeNode[K] {
	n := t.root
	for !n.isLeaf() {
		if last {
			n = n.children[len(n.children)-1]
		} else {
			n = n.children[0]
		}
	}
	return n
}

// walk calls fn for each (key, postings) pair with lo ≤ key ≤ hi, in
// ascending order or, when desc is set, descending, until fn returns
// false. A nil lo means unbounded below; nil hi unbounded above.
// Deletes leave sparse or empty leaves behind; the chain steps over
// them.
func (t *btree[K]) walk(lo, hi *K, desc bool, fn func(k K, postings []int64) bool) {
	post := t.post
	if desc {
		n := t.edgeLeaf(true)
		if hi != nil {
			n = t.leafFor(*hi)
		}
		for ; n != nil; n = n.prev {
			for i := len(n.keys) - 1; i >= 0; i-- {
				if hi != nil && cmp.Less(*hi, n.keys[i]) {
					continue
				}
				if lo != nil && cmp.Less(n.keys[i], *lo) {
					return
				}
				if !fn(n.keys[i], post.inline(n.ids, i)) {
					return
				}
			}
		}
		return
	}
	n := t.edgeLeaf(false)
	if lo != nil {
		n = t.leafFor(*lo)
	}
	for ; n != nil; n = n.next {
		for i := 0; i < len(n.keys); i++ {
			if lo != nil && cmp.Less(n.keys[i], *lo) {
				continue
			}
			if hi != nil && cmp.Less(*hi, n.keys[i]) {
				return
			}
			if !fn(n.keys[i], post.inline(n.ids, i)) {
				return
			}
		}
	}
}

// count returns the postings of the keys in [lo, hi] (nil is open), as
// an ascending walk would sum them, stopping where it stops: at the
// first key that takes the sum past max (≤ 0 never stops). A leaf with
// no listed key adds its in-range keys at once, any other key by key.
// Only the first leaf can hold keys below lo and only the last keys
// above hi, so a leaf in between is searched not at all.
func (t *btree[K]) count(lo, hi *K, max int) int {
	n, i := t.edgeLeaf(false), 0
	if lo != nil {
		n = t.leafFor(*lo)
		i = findKey(n, *lo)
	}
	sum := 0
	for ; n != nil; n, i = n.next, 0 {
		j := len(n.keys) // the leaf's keys in range are [i, j)
		if hi != nil && j > 0 && cmp.Less(*hi, n.keys[j-1]) {
			if j = findKey(n, *hi); cmp.Compare(n.keys[j], *hi) == 0 {
				j++
			}
		}
		if n.listed == 0 {
			if j > i {
				if sum += j - i; max > 0 && sum > max {
					return max + 1
				}
			}
		} else {
			for k := i; k < j; k++ {
				if sum += len(t.post.inline(n.ids, k)); max > 0 && sum > max {
					return sum
				}
			}
		}
		if j < len(n.keys) { // a key past hi ends the range
			return sum
		}
	}
	return sum
}
