package phylo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// builtForm is a tree under construction recorded node by node (by
// build ID) before Index releases it, with the facts an indexed tree
// answers worked out from it independently: the preorder of a
// depth-first walk in child order, and each node's depth, root
// distance, leaf count and subtree size.
type builtForm struct {
	nodes               []Node
	order               []NodeID // build IDs in preorder
	pos                 []NodeID // build ID → position in order
	depth, leaves, size []int
	dist                []float64
}

func recordBuilt(tr *Tree) builtForm {
	n := tr.Len()
	f := builtForm{nodes: make([]Node, n), pos: make([]NodeID, n),
		depth: make([]int, n), leaves: make([]int, n), size: make([]int, n), dist: make([]float64, n)}
	for i := range f.nodes {
		f.nodes[i] = tr.Node(NodeID(i))
		f.nodes[i].Children = slices.Clone(f.nodes[i].Children)
	}
	var walk func(b NodeID)
	walk = func(b NodeID) {
		f.pos[b] = NodeID(len(f.order))
		f.order = append(f.order, b)
		for _, c := range f.nodes[b].Children {
			walk(c)
		}
	}
	walk(tr.Root())
	for _, b := range f.order { // parents before children
		if p := f.nodes[b].Parent; p != None {
			f.depth[b], f.dist[b] = f.depth[p]+1, f.dist[p]+f.nodes[b].Length
		}
	}
	for i := len(f.order) - 1; i >= 0; i-- { // children before parents
		b := f.order[i]
		f.size[b]++
		if len(f.nodes[b].Children) == 0 {
			f.leaves[b] = 1
		}
		if p := f.nodes[b].Parent; p != None {
			f.size[p] += f.size[b]
			f.leaves[p] += f.leaves[b]
		}
	}
	return f
}

// checkRenumbered indexes tr, recorded as f beforehand, and demands the
// renumbering: every node's ID is its position in the walk, a parent's
// ID is below its children's, SubtreeInterval(id) is (id, id+size−1),
// and name, parent, children, length, depth, root distance and leaf
// count are the build form's under the permutation.
func checkRenumbered(t *testing.T, label string, tr *Tree, f builtForm) {
	t.Helper()
	if err := tr.Index(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if tr.Root() != 0 || tr.Len() != len(f.nodes) {
		t.Fatalf("%s: %d nodes rooted at %d after Index, want %d rooted at 0", label, tr.Len(), tr.Root(), len(f.nodes))
	}
	mapID := func(b NodeID) NodeID {
		if b == None {
			return None
		}
		return f.pos[b]
	}
	for b, want := range f.nodes {
		id := f.pos[b]
		got := tr.Node(id)
		wantKids := make([]NodeID, len(want.Children))
		for i, c := range want.Children {
			wantKids[i] = mapID(c)
		}
		if got.Name != want.Name || got.Parent != mapID(want.Parent) || got.Length != want.Length || !slices.Equal(got.Children, wantKids) {
			t.Fatalf("%s: build node %d is node %d %+v, want %+v with children %v", label, b, id, got, want, wantKids)
		}
		if got.Parent != None && got.Parent >= id {
			t.Fatalf("%s: node %d has parent %d", label, id, got.Parent)
		}
		if lo, hi := tr.SubtreeInterval(id); lo != int(id) || hi != int(id)+f.size[b]-1 {
			t.Fatalf("%s: node %d covers [%d, %d], want [%d, %d]", label, id, lo, hi, id, int(id)+f.size[b]-1)
		}
		if tr.Depth(id) != f.depth[b] || tr.RootDistance(id) != f.dist[b] || tr.LeafCount(id) != f.leaves[b] {
			t.Fatalf("%s: node %d has depth %d, root distance %g, %d leaves; want %d, %g, %d", label, id,
				tr.Depth(id), tr.RootDistance(id), tr.LeafCount(id), f.depth[b], f.dist[b], f.leaves[b])
		}
	}
}

// randomShape draws a random recursive tree of n nodes: node i's
// parent is one of nodes 0..i−1. It returns each node's children.
func randomShape(rng *rand.Rand, n int) [][]int {
	kids := make([][]int, n)
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		kids[p] = append(kids[p], i)
	}
	return kids
}

// addShape adds the nodes of a shape to a new tree in the order next
// picks from the nodes whose parent is already in (shape node 0 first),
// naming them by shape index with a few unnamed and a few repeated.
func addShape(t *testing.T, rng *rand.Rand, kids [][]int, next func(ready []int) int) *Tree {
	t.Helper()
	tr := NewTree()
	id := make([]NodeID, len(kids))
	parent := make([]int, len(kids))
	parent[0] = -1
	ready := []int{0}
	for len(ready) > 0 {
		i := next(ready)
		v := ready[i]
		ready = slices.Delete(ready, i, i+1)
		name := fmt.Sprintf("n%d", v%(len(kids)*7/8+1))
		if v%5 == 3 {
			name = ""
		}
		p := None
		if parent[v] >= 0 {
			p = id[parent[v]]
		}
		var err error
		if id[v], err = tr.AddNode(name, p, float64(v%13)/8); err != nil {
			t.Fatal(err)
		}
		for _, c := range kids[v] {
			parent[c] = v
			ready = append(ready, c)
		}
	}
	return tr
}

// yuleBuild grows a bifurcating tree as datagen.RandomTopology does —
// split a random leaf until there are n — so its build IDs run far
// from preorder, and names the leaves L00000… in build order.
func yuleBuild(t testing.TB, rng *rand.Rand, n int) *Tree {
	t.Helper()
	tr := NewTree()
	root, _ := tr.AddNode("", None, 0)
	leaves := []NodeID{root}
	for len(leaves) < n {
		i := rng.Intn(len(leaves))
		l1, _ := tr.AddNode("", leaves[i], 0.05+rng.ExpFloat64()*0.1)
		l2, _ := tr.AddNode("", leaves[i], 0.05+rng.ExpFloat64()*0.1)
		leaves[i] = l1
		leaves = append(leaves, l2)
	}
	for i, id := range leaves {
		if err := tr.SetName(id, fmt.Sprintf("L%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestIndexRenumbersInPreorder is the property test of the renumbering
// on trees added breadth-first, in random order and by random leaf
// splits — none of them in preorder.
func TestIndexRenumbersInPreorder(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 2, 3, 17, 400, 3000} {
		kids := randomShape(rng, n)
		bfs := addShape(t, rng, kids, func([]int) int { return 0 })
		checkRenumbered(t, fmt.Sprintf("breadth-first n=%d", n), bfs, recordBuilt(bfs))
		random := addShape(t, rng, kids, func(ready []int) int { return rng.Intn(len(ready)) })
		checkRenumbered(t, fmt.Sprintf("random order n=%d", n), random, recordBuilt(random))
		yule := yuleBuild(t, rng, n)
		checkRenumbered(t, fmt.Sprintf("random splits n=%d", n), yule, recordBuilt(yule))
	}
}

// TestIndexKeepsPreorderBuilds: neighbour-joining, UPGMA and the Newick
// parser add nodes in preorder, so Index keeps every ID.
func TestIndexKeepsPreorderBuilds(t *testing.T) {
	newick, err := ParseNewick("((A:1,(B:2,C:0.5)bc:1)abc:0.5,(D:3,E:4,(F:1,G:1):2)dg:0.25,H:7)root;")
	if err != nil {
		t.Fatal(err)
	}
	trees := map[string]*Tree{"Newick": newick}
	for _, kind := range []string{"random", "ties", "kmer"} {
		m := njMatrix(t, 60, kind, 9)
		nj, err := NeighborJoining(m)
		if err != nil {
			t.Fatal(err)
		}
		upgma, err := UPGMA(m)
		if err != nil {
			t.Fatal(err)
		}
		trees["NJ "+kind], trees["UPGMA "+kind] = nj, upgma
	}
	for label, tr := range trees {
		f := recordBuilt(tr)
		for b, p := range f.pos {
			if p != NodeID(b) {
				t.Fatalf("%s: build node %d is preorder %d", label, b, p)
			}
		}
		checkRenumbered(t, label, tr, f)
	}
}
