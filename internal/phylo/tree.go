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
	"sort"
	"sync"
)

// NodeID identifies a node within one Tree. IDs are dense: valid IDs
// are 0..Len()-1. The root is not necessarily 0; use Root().
type NodeID int32

// None is the null node ID (parent of the root).
const None NodeID = -1

// Node is one vertex of a phylogenetic tree.
type Node struct {
	// Name is the taxon label for leaves (protein accession in
	// DrugTree) and an optional label for internal nodes.
	Name string
	// Parent is the parent node or None for the root.
	Parent NodeID
	// Children lists child nodes in stable order.
	Children []NodeID
	// Length is the branch length to the parent (0 for the root).
	Length float64
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Tree is a rooted phylogenetic tree. Trees are built once and then
// read concurrently; mutation after Index() is not supported (NameClades
// aside). A Tree must not be copied after first use.
type Tree struct {
	nodes []Node
	root  NodeID

	// Index data, built lazily by Index().
	pre     []int32  // preorder number of each node
	end     []int32  // max preorder number within each node's subtree
	byPre   []NodeID // node at each preorder position
	depth   []int32  // edge depth of each node
	dist    []float64
	leafCnt []int32 // number of leaves under each node
	indexed bool

	// names is the name → node index (see NodeByName), built once on
	// first use: an open-addressing table of node IDs + 1 (0 is an
	// empty bucket) probed by the hash of the name.
	namesOnce sync.Once
	names     []NodeID
}

// NewTree creates an empty tree.
func NewTree() *Tree {
	return &Tree{root: None}
}

// AddNode appends a node and returns its ID. parent must already exist
// (or be None for the root; only one root is allowed).
func (t *Tree) AddNode(name string, parent NodeID, length float64) (NodeID, error) {
	if t.indexed {
		return None, fmt.Errorf("phylo: tree is indexed and immutable")
	}
	if parent == None {
		if t.root != None {
			return None, fmt.Errorf("phylo: tree already has a root")
		}
	} else if int(parent) < 0 || int(parent) >= len(t.nodes) {
		return None, fmt.Errorf("phylo: parent %d out of range", parent)
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{Name: name, Parent: parent, Length: length})
	if parent == None {
		t.root = id
	} else {
		t.nodes[parent].Children = append(t.nodes[parent].Children, id)
	}
	return id, nil
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.nodes) }

// Root returns the root node ID, or None for an empty tree.
func (t *Tree) Root() NodeID { return t.root }

// Node returns the node with the given ID. The returned pointer is
// valid until the tree is mutated.
func (t *Tree) Node(id NodeID) *Node {
	return &t.nodes[id]
}

// Valid reports whether id names a node of this tree.
func (t *Tree) Valid(id NodeID) bool {
	return id >= 0 && int(id) < len(t.nodes)
}

// Leaves returns the IDs of all leaves in preorder (indexed trees) or
// insertion order (unindexed).
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	if t.indexed {
		for _, id := range t.byPre {
			if t.nodes[id].IsLeaf() {
				out = append(out, id)
			}
		}
		return out
	}
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// FindLeaf returns the leaf with the given name, or None. O(n), and
// usable before Index; on an indexed tree NodeByName is the O(1) lookup.
func (t *Tree) FindLeaf(name string) NodeID {
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() && t.nodes[i].Name == name {
			return NodeID(i)
		}
	}
	return None
}

// Index freezes the tree and builds the preorder-interval subtree
// index and the depth/branch-length arrays. Calling Index more than
// once is a no-op.
func (t *Tree) Index() error {
	if t.indexed {
		return nil
	}
	if t.root == None {
		return fmt.Errorf("phylo: cannot index empty tree")
	}
	n := len(t.nodes)
	t.pre = make([]int32, n)
	t.end = make([]int32, n)
	t.byPre = make([]NodeID, n)
	t.depth = make([]int32, n)
	t.dist = make([]float64, n)
	t.leafCnt = make([]int32, n)

	// Iterative DFS to avoid recursion depth limits on degenerate
	// trees (caterpillar topologies from UPGMA chains).
	type frame struct {
		id    NodeID
		child int
	}
	stack := []frame{{t.root, 0}}
	var counter int32
	t.pre[t.root] = 0
	t.byPre[0] = t.root
	counter = 1
	visited := 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		node := &t.nodes[f.id]
		if f.child < len(node.Children) {
			c := node.Children[f.child]
			f.child++
			t.pre[c] = counter
			t.byPre[counter] = c
			counter++
			visited++
			t.depth[c] = t.depth[f.id] + 1
			t.dist[c] = t.dist[f.id] + t.nodes[c].Length
			stack = append(stack, frame{c, 0})
			continue
		}
		// Leaving f.id: subtree interval closes here.
		t.end[f.id] = counter - 1
		if node.IsLeaf() {
			t.leafCnt[f.id] = 1
		} else {
			var sum int32
			for _, c := range node.Children {
				sum += t.leafCnt[c]
			}
			t.leafCnt[f.id] = sum
		}
		stack = stack[:len(stack)-1]
	}
	if visited != n {
		return fmt.Errorf("phylo: tree has %d nodes but only %d reachable from root", n, visited)
	}
	t.indexed = true
	return nil
}

// NameClades gives every unnamed node of an indexed tree the name
// clade_<preorder number>, so a subtree predicate can reference any
// clade; on a tree whose nodes are all named it does nothing. The name
// index is built once, from the names the nodes carry then, and a node
// renamed afterwards would keep answering to its old name — so the
// first NameClades must precede the first NodeByName, and one that finds
// the index built and a node unnamed panics.
func (t *Tree) NameClades() {
	t.mustIndexed()
	t.namesOnce.Do(func() {
		for i := range t.nodes {
			if t.nodes[i].Name == "" {
				t.nodes[i].Name = fmt.Sprintf("clade_%d", t.pre[i])
			}
		}
		t.buildNames()
	})
	for i := range t.nodes {
		if t.nodes[i].Name == "" { // only if the index was built before this call
			panic("phylo: NameClades after the name index was built")
		}
	}
}

// nameSeed keys the name index's hash for this process.
var nameSeed = maphash.MakeSeed()

// buildNames fills the name index: a power-of-two table at most half
// full, so a probe run stays short.
func (t *Tree) buildNames() {
	size := 1
	for size < 2*len(t.nodes) {
		size *= 2
	}
	t.names = make([]NodeID, size)
	for i := range t.nodes {
		name := t.nodes[i].Name
		if name == "" {
			continue
		}
		b := int(maphash.String(nameSeed, name)) & (size - 1)
		for t.names[b] != 0 && t.nodes[t.names[b]-1].Name != name {
			b = (b + 1) & (size - 1)
		}
		if t.names[b] == 0 { // else an earlier node keeps the name
			t.names[b] = NodeID(i) + 1
		}
	}
}

// NodeByName returns the node (leaf or internal) carrying name — of
// several, the one with the lowest ID — and whether there is one.
// Unnamed nodes are not indexed, so "" finds nothing. It is the one
// name resolution every layer shares: the query engine's tree
// predicates, the engine's navigation calls, the overlay and the shard
// classifier cannot disagree about which node a duplicated name means.
func (t *Tree) NodeByName(name string) (NodeID, bool) {
	t.mustIndexed()
	t.namesOnce.Do(t.buildNames)
	if name == "" {
		return None, false
	}
	mask := len(t.names) - 1
	for b := int(maphash.String(nameSeed, name)) & mask; t.names[b] != 0; b = (b + 1) & mask {
		if id := t.names[b] - 1; t.nodes[id].Name == name {
			return id, true
		}
	}
	return None, false
}

// Indexed reports whether Index has been called.
func (t *Tree) Indexed() bool { return t.indexed }

func (t *Tree) mustIndexed() {
	if !t.indexed {
		panic("phylo: operation requires an indexed tree; call Index() first")
	}
}

// Pre returns the preorder number of id (indexed trees only).
func (t *Tree) Pre(id NodeID) int { t.mustIndexed(); return int(t.pre[id]) }

// SubtreeInterval returns the half-open-free inclusive preorder range
// [lo, hi] covering exactly the subtree rooted at id.
func (t *Tree) SubtreeInterval(id NodeID) (lo, hi int) {
	t.mustIndexed()
	return int(t.pre[id]), int(t.end[id])
}

// NodeAtPre returns the node with preorder number p.
func (t *Tree) NodeAtPre(p int) NodeID { t.mustIndexed(); return t.byPre[p] }

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
	return t.pre[a] <= t.pre[b] && t.pre[b] <= t.end[a]
}

// SubtreeNaive collects the subtree of id by recursive traversal. It
// exists as the baseline for the interval index in experiment F1.
func (t *Tree) SubtreeNaive(id NodeID) []NodeID {
	var out []NodeID
	var stack []NodeID
	stack = append(stack, id)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		children := t.nodes[v].Children
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
	return out
}

// SubtreeIndexed collects the subtree of id via the preorder interval:
// a single contiguous slice scan.
func (t *Tree) SubtreeIndexed(id NodeID) []NodeID {
	lo, hi := t.SubtreeInterval(id)
	out := make([]NodeID, hi-lo+1)
	copy(out, t.byPre[lo:hi+1])
	return out
}

// SubtreeLeaves returns the leaves under id in preorder.
func (t *Tree) SubtreeLeaves(id NodeID) []NodeID {
	lo, hi := t.SubtreeInterval(id)
	out := make([]NodeID, 0, t.leafCnt[id])
	for p := lo; p <= hi; p++ {
		if t.nodes[t.byPre[p]].IsLeaf() {
			out = append(out, t.byPre[p])
		}
	}
	return out
}

// Ancestors returns the path from id to the root, inclusive.
func (t *Tree) Ancestors(id NodeID) []NodeID {
	var out []NodeID
	for v := id; v != None; v = t.nodes[v].Parent {
		out = append(out, v)
	}
	return out
}

// Height returns the maximum root distance over all leaves.
func (t *Tree) Height() float64 {
	t.mustIndexed()
	h := 0.0
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() && t.dist[i] > h {
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
		if len(t.nodes) == 0 {
			return nil
		}
		return fmt.Errorf("phylo: %d nodes but no root", len(t.nodes))
	}
	if t.nodes[t.root].Parent != None {
		return fmt.Errorf("phylo: root has a parent")
	}
	seen := make(map[string]NodeID)
	roots := 0
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.Parent == None {
			roots++
		} else {
			if !t.Valid(n.Parent) {
				return fmt.Errorf("phylo: node %d has invalid parent %d", i, n.Parent)
			}
			found := false
			for _, c := range t.nodes[n.Parent].Children {
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
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() {
			names = append(names, t.nodes[i].Name)
		}
	}
	sort.Strings(names)
	return names
}
