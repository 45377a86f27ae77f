// Package phylo provides phylogenetic tree construction
// (Neighbor-Joining and UPGMA over distance matrices), Newick
// serialization, and the query-side tree indexes DrugTree depends on:
// a preorder-interval subtree index and constant-time LCA.
package phylo

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
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
// read concurrently; mutation after Index() is not supported.
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

	// LCA structures (built by Index): the Euler tour, each node's
	// first position on it, and a sparse table over the shallowest
	// position of each rmqBlock-position block of the tour.
	euler    []NodeID
	eulerPos []int32
	sparse   [][]int32
}

// rmqBlock is how many Euler positions one sparse-table entry covers.
// The table shrinks by that factor (and loses log2 of it in levels)
// against one over every position; a query pays for it with at most
// two in-block scans.
const rmqBlock = 32

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

// FindLeaf returns the leaf with the given name, or None.
// O(n); callers needing repeated lookup should build their own map or
// use an indexed tree via LeafByName.
func (t *Tree) FindLeaf(name string) NodeID {
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() && t.nodes[i].Name == name {
			return NodeID(i)
		}
	}
	return None
}

// Index freezes the tree and builds the preorder-interval subtree
// index, depth/branch-length arrays, and the Euler-tour LCA structure.
// Calling Index more than once is a no-op.
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
	t.euler = make([]NodeID, 0, 2*n)
	t.eulerPos = make([]int32, n)
	for i := range t.eulerPos {
		t.eulerPos[i] = -1
	}

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
	t.euler = append(t.euler, t.root)
	t.eulerPos[t.root] = 0
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
			t.eulerPos[c] = int32(len(t.euler))
			t.euler = append(t.euler, c)
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
		if len(stack) > 0 {
			t.euler = append(t.euler, stack[len(stack)-1].id)
		}
	}
	if visited != n {
		return fmt.Errorf("phylo: tree has %d nodes but only %d reachable from root", n, visited)
	}
	t.buildSparse()
	t.indexed = true
	return nil
}

// shallower returns whichever Euler position holds the shallower node
// (the earlier one on a tie).
func (t *Tree) shallower(a, b int32) int32 {
	if t.depth[t.euler[a]] <= t.depth[t.euler[b]] {
		return a
	}
	return b
}

// scanMin returns the shallowest Euler position in [lo, hi].
func (t *Tree) scanMin(lo, hi int32) int32 {
	best, depth := lo, t.depth[t.euler[lo]]
	for i := lo + 1; i <= hi; i++ {
		if d := t.depth[t.euler[i]]; d < depth {
			best, depth = i, d
		}
	}
	return best
}

// buildSparse constructs the sparse table of shallowest positions over
// the Euler tour's blocks: level l, entry b covers blocks [b, b+2^l).
func (t *Tree) buildSparse() {
	m := int32(len(t.euler))
	blocks := (m + rmqBlock - 1) / rmqBlock
	base := make([]int32, blocks)
	for b := range base {
		lo := int32(b) * rmqBlock
		base[b] = t.scanMin(lo, min(lo+rmqBlock, m)-1)
	}
	t.sparse = [][]int32{base}
	for span := int32(2); span <= blocks; span *= 2 {
		prev := t.sparse[len(t.sparse)-1]
		row := make([]int32, blocks-span+1)
		for i := range row {
			row[i] = t.shallower(prev[i], prev[int32(i)+span/2])
		}
		t.sparse = append(t.sparse, row)
	}
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

// LCA returns the lowest common ancestor of a and b in O(1): the
// shallowest node between their first Euler positions, found as the
// minimum of the partial blocks at either end (a scan each) and the
// whole blocks between them (two overlapping sparse-table entries).
func (t *Tree) LCA(a, b NodeID) NodeID {
	t.mustIndexed()
	pa, pb := t.eulerPos[a], t.eulerPos[b]
	if pa > pb {
		pa, pb = pb, pa
	}
	ba, bb := pa/rmqBlock, pb/rmqBlock
	if ba == bb {
		return t.euler[t.scanMin(pa, pb)]
	}
	best := t.shallower(t.scanMin(pa, (ba+1)*rmqBlock-1), t.scanMin(bb*rmqBlock, pb))
	if span := bb - ba - 1; span > 0 {
		level := bits.Len32(uint32(span)) - 1
		row := t.sparse[level]
		best = t.shallower(best, t.shallower(row[ba+1], row[bb-int32(1)<<level]))
	}
	return t.euler[best]
}

// PathDistance returns the sum of branch lengths on the path a..b.
func (t *Tree) PathDistance(a, b NodeID) float64 {
	l := t.LCA(a, b)
	return t.dist[a] + t.dist[b] - 2*t.dist[l]
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
