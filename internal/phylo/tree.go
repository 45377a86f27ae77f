// Package phylo provides phylogenetic tree construction
// (Neighbor-Joining and UPGMA over distance matrices), Newick
// serialization, and the query-side tree indexes DrugTree depends on:
// a preorder-interval subtree index (subtree membership and ancestry in
// O(1)) and a name → node index.
package phylo

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// NodeID identifies a node within one Tree. IDs are dense: valid IDs
// are 0..Len()-1. While a tree is built, a node's ID is its place in
// AddNode order — a build ID, valid only until Index. Index renumbers
// every node by its preorder position, so on an indexed tree the root
// is 0, a parent's ID is below its children's, and a subtree is the ID
// range SubtreeInterval returns.
type NodeID int32

// None is the null node ID (parent of the root).
const None NodeID = -1

// Node is a by-value view of one vertex of a phylogenetic tree: reading
// it allocates nothing and writing it changes nothing (SetName renames).
type Node struct {
	// Name is the taxon label for leaves (protein accession in
	// DrugTree) and an optional label for internal nodes. On an indexed
	// tree it is a substring of the tree's name arena.
	Name string
	// Parent is the parent node or None for the root.
	Parent NodeID
	// Children lists child nodes in stable order: a window into the
	// tree's child array, not to be modified.
	Children []NodeID
	// Length is the branch length to the parent (0 for the root).
	Length float64
}

// IsLeaf reports whether the node has no children.
func (n Node) IsLeaf() bool { return len(n.Children) == 0 }

// Tree is a rooted phylogenetic tree. Trees are built once and then
// read concurrently; mutation after Index() is not supported (NameClades
// aside). A Tree must not be copied after first use.
//
// A tree has two forms. While it is built, every node has a name string
// and a child list of its own. Index() renumbers the nodes in preorder
// and freezes the tree into flat arrays indexed by that number — no
// pointer per node: the children of all nodes in one array cut by
// offsets, the names in one string arena cut by offsets — and releases
// the build form. Names, child order, branch lengths and every
// structural answer read the same either way; only the IDs change,
// and not at all for a tree built in preorder (NJ, UPGMA, Newick).
type Tree struct {
	root   NodeID
	parent []int32   // by node: the parent's ID, None (-1) at the root
	length []float64 // by node: branch length to the parent

	// Build form; nil once indexed.
	names []string
	kids  [][]NodeID

	// Frozen form, built by Index() in preorder.
	childOff []int32  // node i's children are childIDs[childOff[i]:childOff[i+1]]
	childIDs []NodeID // every non-root node, grouped by parent in child order
	nameOff  []uint32 // node i's name is arena[nameOff[i]:nameOff[i+1]]
	arena    string
	end      []int32 // highest ID within each node's subtree
	depth    []int32 // edge depth of each node
	dist     []float64
	leafCnt  []int32 // number of leaves under each node
	indexed  bool

	// nameTab is the name → node index (see NodesByName), built once on
	// first use: an open-addressing table of node IDs + 1 (0 is an
	// empty bucket) probed by the hash of the name, filing every named
	// node; distinct counts their names.
	namesOnce sync.Once
	nameTab   []NodeID
	distinct  int
}

// NewTree creates an empty tree.
func NewTree() *Tree {
	return &Tree{root: None}
}

// AddNode appends a node and returns its build ID, which holds until
// Index renumbers the tree. parent must already exist (or be None for
// the root; only one root is allowed).
func (t *Tree) AddNode(name string, parent NodeID, length float64) (NodeID, error) {
	if t.indexed {
		return None, fmt.Errorf("phylo: tree is indexed and immutable")
	}
	if parent == None {
		if t.root != None {
			return None, fmt.Errorf("phylo: tree already has a root")
		}
	} else if !t.Valid(parent) {
		return None, fmt.Errorf("phylo: parent %d out of range", parent)
	}
	id := NodeID(len(t.parent))
	t.parent = append(t.parent, int32(parent))
	t.length = append(t.length, length)
	t.names = append(t.names, name)
	t.kids = append(t.kids, nil)
	if parent == None {
		t.root = id
	} else {
		t.kids[parent] = append(t.kids[parent], id)
	}
	return id, nil
}

// SetName renames a node of a tree under construction. An indexed
// tree's names are frozen — the name index and every layer that
// resolved a name through it would keep answering to the old one — so
// there it is an error (NameClades is the one naming step after Index).
func (t *Tree) SetName(id NodeID, name string) error {
	if t.indexed {
		return fmt.Errorf("phylo: tree is indexed and immutable")
	}
	if !t.Valid(id) {
		return fmt.Errorf("phylo: node %d out of range", id)
	}
	t.names[id] = name
	return nil
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.parent) }

// Root returns the root node ID, or None for an empty tree.
func (t *Tree) Root() NodeID { return t.root }

// Node returns a view of the node with the given ID.
func (t *Tree) Node(id NodeID) Node {
	return Node{Name: t.Name(id), Parent: NodeID(t.parent[id]), Children: t.children(id), Length: t.length[id]}
}

// Name returns the name of node id, "" when it has none: on an indexed
// tree a substring of the name arena, allocating nothing.
func (t *Tree) Name(id NodeID) string {
	if t.indexed {
		return t.arena[t.nameOff[id]:t.nameOff[id+1]]
	}
	return t.names[id]
}

func (t *Tree) children(id NodeID) []NodeID {
	if t.indexed {
		lo, hi := t.childOff[id], t.childOff[id+1]
		return t.childIDs[lo:hi:hi]
	}
	return t.kids[id]
}

func (t *Tree) isLeaf(id NodeID) bool { return len(t.children(id)) == 0 }

// Valid reports whether id names a node of this tree.
func (t *Tree) Valid(id NodeID) bool {
	return id >= 0 && int(id) < len(t.parent)
}

// Leaves returns the IDs of all leaves in ID order: preorder once
// indexed, insertion order before.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	for i := range t.parent {
		if t.isLeaf(NodeID(i)) {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Index renumbers the nodes in preorder and freezes the tree: in one
// depth-first walk it lays parents, branch lengths, children and names
// out in their flat form by preorder ID beside the subtree-interval,
// depth, root-distance and leaf-count arrays, then releases the build
// form. Every build ID is stale afterwards; look nodes up by name.
// Calling Index more than once is a no-op.
func (t *Tree) Index() error {
	if t.indexed {
		return nil
	}
	if t.root == None {
		return fmt.Errorf("phylo: cannot index empty tree")
	}
	n := len(t.parent)
	nameBytes := 0
	for _, name := range t.names {
		nameBytes += len(name)
	}
	if uint64(nameBytes)+uint64(maxCladeName*n) > math.MaxUint32 {
		return fmt.Errorf("phylo: %d bytes of node names exceed the name arena", nameBytes)
	}
	parent := make([]int32, n)
	length := make([]float64, n)
	childOff := make([]int32, n+1)
	childIDs := make([]NodeID, n-1)
	nameOff := make([]uint32, n+1)
	end := make([]int32, n)
	depth := make([]int32, n)
	dist := make([]float64, n)
	leafCnt := make([]int32, n)
	var arena strings.Builder
	arena.Grow(nameBytes)

	// Iterative DFS to avoid recursion depth limits on degenerate
	// trees (caterpillar topologies from UPGMA chains). A frame is a
	// node entered: its build ID, its preorder ID and the next child
	// to enter.
	type frame struct {
		build, id NodeID
		child     int32
	}
	var stack []frame
	next := NodeID(0)
	// enter gives build node b the next preorder ID, as a child of p.
	enter := func(b, p NodeID) {
		id := next
		next++
		parent[id], length[id] = int32(p), t.length[b]
		if p != None {
			depth[id], dist[id] = depth[p]+1, dist[p]+t.length[b]
		}
		arena.WriteString(t.names[b])
		nameOff[id+1] = uint32(arena.Len())
		childOff[id+1] = childOff[id] + int32(len(t.kids[b]))
		stack = append(stack, frame{build: b, id: id})
	}
	enter(t.root, None)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := t.kids[f.build]
		if int(f.child) < len(kids) {
			childIDs[childOff[f.id]+f.child] = next
			f.child++
			enter(kids[f.child-1], f.id)
			continue
		}
		// Leaving f.id: its subtree interval closes here.
		end[f.id] = int32(next - 1)
		if len(kids) == 0 {
			leafCnt[f.id] = 1
		}
		if p := parent[f.id]; p != int32(None) {
			leafCnt[p] += leafCnt[f.id]
		}
		stack = stack[:len(stack)-1]
	}
	if int(next) != n {
		return fmt.Errorf("phylo: tree has %d nodes but only %d reachable from root", n, next)
	}
	t.root, t.parent, t.length = 0, parent, length
	t.childOff, t.childIDs, t.arena, t.nameOff = childOff, childIDs, arena.String(), nameOff
	t.end, t.depth, t.dist, t.leafCnt = end, depth, dist, leafCnt
	t.names, t.kids = nil, nil
	t.indexed = true
	return nil
}

// maxCladeName bounds len("clade_<ID>").
const maxCladeName = len("clade_") + 10

// NameClades gives every unnamed node of an indexed tree the name
// clade_<ID> (its preorder number), so a subtree predicate can
// reference any clade; on a tree whose nodes are all named it does
// nothing. The name index is built once, from the names the nodes
// carry then — so the first NameClades must precede the first
// NodeByName, and one that finds the index built and a node unnamed
// panics.
func (t *Tree) NameClades() {
	t.mustIndexed()
	// cladeBytes is the total length of the names the unnamed nodes are due.
	cladeBytes := func() (n int) {
		for i := range t.parent {
			if t.nameOff[i] == t.nameOff[i+1] {
				n += len("clade_")
				for p := i; ; p /= 10 {
					if n++; p < 10 {
						break
					}
				}
			}
		}
		return n
	}
	t.namesOnce.Do(func() {
		if n := cladeBytes(); n > 0 { // lay every name into a new arena
			var arena strings.Builder
			arena.Grow(len(t.arena) + n)
			off := make([]uint32, len(t.nameOff))
			var digits []byte
			for i := range t.parent {
				if name := t.Name(NodeID(i)); name != "" {
					arena.WriteString(name)
				} else {
					digits = strconv.AppendInt(append(digits[:0], "clade_"...), int64(i), 10)
					arena.Write(digits)
				}
				off[i+1] = uint32(arena.Len())
			}
			t.arena, t.nameOff = arena.String(), off
		}
		t.buildNames()
	})
	if cladeBytes() > 0 { // only if the index was built before this call
		panic("phylo: NameClades after the name index was built")
	}
}

// nameSeed keys the name index's hash for this process.
var nameSeed = maphash.MakeSeed()

// nameBucket is where the probe run of name starts in a table of size
// buckets.
func nameBucket(name string, size int) int {
	hi, _ := bits.Mul64(maphash.String(nameSeed, name), uint64(size))
	return int(hi)
}

// nextBucket is the bucket after b on a probe run.
func nextBucket(b, size int) int {
	if b++; b == size {
		return 0
	}
	return b
}

// buildNames fills the name index: a table three quarters full, so a
// probe run stays short. Nodes are filed in ID order and never removed,
// so the nodes of one name lie along its probe run in ascending ID; a
// name is new when no node before it on its run carries it.
func (t *Tree) buildNames() {
	size := len(t.parent)*4/3 + 1
	t.nameTab = make([]NodeID, size)
	for i := range t.parent {
		name := t.Name(NodeID(i))
		if name == "" {
			continue
		}
		b, fresh := nameBucket(name, size), true
		for ; t.nameTab[b] != 0; b = nextBucket(b, size) {
			fresh = fresh && t.Name(t.nameTab[b]-1) != name
		}
		t.nameTab[b] = NodeID(i) + 1
		if fresh {
			t.distinct++
		}
	}
}

// NodesByName calls fn with every node (leaf or internal) carrying
// name, in ascending ID — preorder — until fn returns false; it reports
// whether fn never did. Unnamed nodes are not indexed, so "" finds
// nothing.
func (t *Tree) NodesByName(name string, fn func(NodeID) bool) bool {
	t.mustIndexed()
	t.namesOnce.Do(t.buildNames)
	if name == "" {
		return true
	}
	for b := nameBucket(name, len(t.nameTab)); t.nameTab[b] != 0; b = nextBucket(b, len(t.nameTab)) {
		if id := t.nameTab[b] - 1; t.Name(id) == name && !fn(id) {
			return false
		}
	}
	return true
}

// NodeByName returns the node carrying name — of several, the one first
// in preorder (the lowest ID) — and whether there is one. It is the one
// name resolution every layer shares: the query engine's tree
// predicates (the node they name and, on a name column, the node each
// row's name means), the rank index's keys, the engine's navigation
// calls and the overlay cannot disagree about which node a duplicated
// name means.
func (t *Tree) NodeByName(name string) (NodeID, bool) {
	t.mustIndexed()
	t.namesOnce.Do(t.buildNames)
	if name == "" {
		return None, false
	}
	for b := nameBucket(name, len(t.nameTab)); t.nameTab[b] != 0; b = nextBucket(b, len(t.nameTab)) {
		if id := t.nameTab[b] - 1; t.Name(id) == name {
			return id, true
		}
	}
	return None, false
}

// DistinctNames returns the number of distinct names the tree's named
// nodes carry.
func (t *Tree) DistinctNames() int {
	t.mustIndexed()
	t.namesOnce.Do(t.buildNames)
	return t.distinct
}

// Indexed reports whether Index has been called.
func (t *Tree) Indexed() bool { return t.indexed }

func (t *Tree) mustIndexed() {
	if !t.indexed {
		panic("phylo: operation requires an indexed tree; call Index() first")
	}
}

// Pre returns id: an indexed tree's IDs are preorder numbers. Pre and
// NodeAtPre are identities that only the repository benchmark (bench/)
// still calls.
func (t *Tree) Pre(id NodeID) int { t.mustIndexed(); return int(id) }

// NodeAtPre returns the node with preorder number p, which is p.
func (t *Tree) NodeAtPre(p int) NodeID { t.mustIndexed(); return NodeID(p) }

// SubtreeInterval returns the inclusive ID range [lo, hi] covering
// exactly the subtree rooted at id; lo is id.
func (t *Tree) SubtreeInterval(id NodeID) (lo, hi int) {
	t.mustIndexed()
	return int(id), int(t.end[id])
}

// Parent returns the parent of id, or None for the root.
func (t *Tree) Parent(id NodeID) NodeID { return NodeID(t.parent[id]) }

// Lengths returns every node's branch length by ID. It is the tree's
// own vector, shared rather than copied: read-only.
func (t *Tree) Lengths() []float64 { return t.length }

// Parents, Ends, Depths and LeafCounts return Parent, the last ID of
// SubtreeInterval, Depth and LeafCount for every node by ID, in the
// int32 the tree holds them in. Like Lengths, each is the tree's own
// array: read-only.
func (t *Tree) Parents() []int32    { t.mustIndexed(); return t.parent }
func (t *Tree) Ends() []int32       { t.mustIndexed(); return t.end }
func (t *Tree) Depths() []int32     { t.mustIndexed(); return t.depth }
func (t *Tree) LeafCounts() []int32 { t.mustIndexed(); return t.leafCnt }

// Depth returns the number of edges from the root to id.
func (t *Tree) Depth(id NodeID) int { t.mustIndexed(); return int(t.depth[id]) }

// RootDistance returns the sum of branch lengths from the root to id.
func (t *Tree) RootDistance(id NodeID) float64 { t.mustIndexed(); return t.dist[id] }

// LeafCount returns the number of leaves in the subtree rooted at id.
func (t *Tree) LeafCount(id NodeID) int { t.mustIndexed(); return int(t.leafCnt[id]) }

// IsAncestor reports whether a is an ancestor of (or equal to) b,
// answered in O(1) from the interval index.
func (t *Tree) IsAncestor(a, b NodeID) bool {
	t.mustIndexed()
	return a <= b && int32(b) <= t.end[a]
}

// SubtreeLeaves returns the leaves under id in preorder.
func (t *Tree) SubtreeLeaves(id NodeID) []NodeID {
	lo, hi := t.SubtreeInterval(id)
	out := make([]NodeID, 0, t.leafCnt[id])
	for v := NodeID(lo); v <= NodeID(hi); v++ {
		if t.isLeaf(v) {
			out = append(out, v)
		}
	}
	return out
}

// Height returns the maximum root distance over all leaves.
func (t *Tree) Height() float64 {
	t.mustIndexed()
	h := 0.0
	for i := range t.parent {
		if t.isLeaf(NodeID(i)) && t.dist[i] > h {
			h = t.dist[i]
		}
	}
	return h
}

// Validate checks structural invariants: a single root, parent/child
// agreement, non-negative finite branch lengths, and unique leaf
// names. It works on indexed and unindexed trees.
func (t *Tree) Validate() error {
	if t.root == None {
		if t.Len() == 0 {
			return nil
		}
		return fmt.Errorf("phylo: %d nodes but no root", t.Len())
	}
	if t.parent[t.root] != int32(None) {
		return fmt.Errorf("phylo: root has a parent")
	}
	seen := make(map[string]NodeID)
	roots := 0
	for i := range t.parent {
		n := t.Node(NodeID(i))
		if n.Parent == None {
			roots++
		} else {
			if !t.Valid(n.Parent) {
				return fmt.Errorf("phylo: node %d has invalid parent %d", i, n.Parent)
			}
			found := false
			for _, c := range t.children(n.Parent) {
				if c == NodeID(i) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("phylo: node %d missing from parent %d child list", i, n.Parent)
			}
		}
		if n.Length < 0 || math.IsNaN(n.Length) || math.IsInf(n.Length, 0) {
			return fmt.Errorf("phylo: node %d has invalid branch length %g", i, n.Length)
		}
		if n.IsLeaf() {
			if n.Name == "" {
				return fmt.Errorf("phylo: leaf %d has empty name", i)
			}
			if prev, dup := seen[n.Name]; dup {
				return fmt.Errorf("phylo: duplicate leaf name %q (nodes %d and %d)", n.Name, prev, i)
			}
			seen[n.Name] = NodeID(i)
		}
	}
	if roots != 1 {
		return fmt.Errorf("phylo: %d roots", roots)
	}
	return nil
}

// LeafNames returns the sorted names of all leaves.
func (t *Tree) LeafNames() []string {
	var names []string
	for i := range t.parent {
		if id := NodeID(i); t.isLeaf(id) {
			names = append(names, t.Name(id))
		}
	}
	sort.Strings(names)
	return names
}
