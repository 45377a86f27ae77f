package store

import "cmp"

// btreeKey is what a B+-tree can be keyed on: the machine form of a
// column's cells — int64 for INT (and BOOL as 0/1), float64, string.
type btreeKey interface{ int64 | float64 | string }

// btree is an in-memory B+ tree mapping the non-NULL cells of one
// column, in the column's own type, to row-ID postings lists. It backs
// ordered secondary indexes: equality probes, range scans, and ordered
// (index-order top-k) walks.
//
// Keys are ordered by cmp.Compare, which is store.Compare's order on
// cells of one kind: -0 and +0 are one key, NaN is one key below every
// other float. Keys are unique within the tree; duplicate inserts append
// to the key's postings list. Leaves are doubly chained so range scans
// run in either direction.
//
// Leaves are laid out for the common case of one row per key: a leaf's
// key and id arrays are allocated once at full capacity and never
// regrown, a key's only posting sits inline in ids, and a postings
// slice exists only for a key that holds a second id. A full leaf at
// either end of the chain splits at that end when the new key falls
// outside it, so monotone loads leave every leaf full instead of half.
type btree[K btreeKey] struct {
	root *btreeNode[K]
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
	ids      []int64         // leaf only: the row ID of a single-posting key
	many     [][]int64       // leaf only: nil until a key holds ≥ 2 IDs; many[i] != nil holds all of key i's
	next     *btreeNode[K]   // leaf chain, ascending
	prev     *btreeNode[K]   // leaf chain, descending
}

func (n *btreeNode[K]) isLeaf() bool { return n.children == nil }

// postings returns key i's row IDs without allocating: the inline id
// is handed out as a one-element window of the leaf's id array.
func (n *btreeNode[K]) postings(i int) []int64 {
	if n.many != nil && n.many[i] != nil {
		return n.many[i]
	}
	return n.ids[i : i+1 : i+1]
}

func newLeaf[K btreeKey]() *btreeNode[K] {
	return &btreeNode[K]{keys: make([]K, 0, btreeMaxKeys), ids: make([]int64, 0, btreeMaxKeys)}
}

func newBTree[K btreeKey]() *btree[K] {
	return &btree[K]{root: newLeaf[K]()}
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
		if n.many == nil {
			n.many = make([][]int64, len(n.keys), btreeMaxKeys)
		}
		n.many[i] = append(n.postings(i), rowID)
		return
	}
	var zero K
	n.keys = append(n.keys, zero)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = k
	n.ids = append(n.ids, 0)
	copy(n.ids[i+1:], n.ids[i:])
	n.ids[i] = rowID
	if n.many != nil {
		n.many = append(n.many, nil)
		copy(n.many[i+1:], n.many[i:])
		n.many[i] = nil
	}
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
		if child.many != nil {
			sib.many = append(make([][]int64, 0, btreeMaxKeys), child.many[mid:]...)
			clear(child.many[mid:])
			child.many = child.many[:mid]
		}
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
		return n.postings(i)
	}
	return nil
}

// Delete removes rowID from key k's postings, dropping the key when
// its postings list becomes empty. Structural underflow is tolerated
// (nodes may become sparse); the tree never loses keys and lookup
// correctness is unaffected, which is the right trade-off for an
// index whose tables are overwhelmingly append-mostly.
func (t *btree[K]) Delete(k K, rowID int64) bool {
	n := t.leafFor(k)
	i := findKey(n, k)
	if i >= len(n.keys) || cmp.Compare(n.keys[i], k) != 0 {
		return false
	}
	post := n.postings(i)
	for j, id := range post {
		if id != rowID {
			continue
		}
		switch len(post) {
		case 1:
			var zero K
			copy(n.keys[i:], n.keys[i+1:])
			n.keys[len(n.keys)-1] = zero
			n.keys = n.keys[:len(n.keys)-1]
			copy(n.ids[i:], n.ids[i+1:])
			n.ids = n.ids[:len(n.ids)-1]
			if n.many != nil {
				copy(n.many[i:], n.many[i+1:])
				n.many[len(n.many)-1] = nil
				n.many = n.many[:len(n.many)-1]
			}
		case 2: // back to one inline posting
			n.ids[i], n.many[i] = post[1-j], nil
		default:
			post[j] = post[len(post)-1]
			n.many[i] = post[:len(post)-1]
		}
		return true
	}
	return false
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
				if !fn(n.keys[i], n.postings(i)) {
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
			if !fn(n.keys[i], n.postings(i)) {
				return
			}
		}
	}
}
