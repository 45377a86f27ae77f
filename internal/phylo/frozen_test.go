package phylo

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomBuiltTree grows an unindexed tree of n nodes under random
// parents: fan-outs from zero to many, about a fifth of the nodes
// unnamed, a few names repeated.
func randomBuiltTree(t *testing.T, rng *rand.Rand, n int) *Tree {
	t.Helper()
	tr := NewTree()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", rng.Intn(n))
		if rng.Intn(5) == 0 {
			name = ""
		}
		parent := None
		if i > 0 {
			parent = NodeID(rng.Intn(i))
		}
		if _, err := tr.AddNode(name, parent, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestFrozenTreeEqualsBuiltTree records every accessor's answer on a
// tree under construction, indexes it — which renumbers the nodes in
// preorder, moves topology and names into their flat form and releases
// the build form — and demands the same answers node for node under
// the renumbering: names, parents, child order, branch lengths,
// leaves, serialisation.
func TestFrozenTreeEqualsBuiltTree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 50, 3000} {
		tr := randomBuiltTree(t, rng, n)
		if err := tr.SetName(NodeID(n-1), "renamed"); err != nil {
			t.Fatal(err)
		}
		built := recordBuilt(tr)
		if built.nodes[n-1].Name != "renamed" {
			t.Fatalf("SetName did not take: node %d is %q", n-1, built.nodes[n-1].Name)
		}
		leaves, leafNames, newick := tr.Leaves(), tr.LeafNames(), tr.Newick()

		checkRenumbered(t, fmt.Sprintf("n=%d", n), tr, built)
		if tr.names != nil || tr.kids != nil {
			t.Fatalf("n=%d: Index kept the build form", n)
		}
		for id := range NodeID(n) {
			if kids := tr.Node(id).Children; cap(kids) != len(kids) {
				t.Fatalf("n=%d node %d: the child window has room to append into its neighbour's", n, id)
			}
		}
		// Leaves come in ID order: preorder once indexed, insertion order before.
		renumbered := make([]NodeID, len(leaves))
		for i, b := range leaves {
			renumbered[i] = built.pos[b]
		}
		slices.Sort(renumbered)
		if !slices.Equal(tr.Leaves(), renumbered) {
			t.Fatalf("n=%d: Leaves changed", n)
		}
		if !reflect.DeepEqual(tr.LeafNames(), leafNames) || tr.Newick() != newick {
			t.Fatalf("n=%d: LeafNames or Newick changed across Index", n)
		}
		for p, id := range recordBuilt(tr).order { // a depth-first walk of the indexed tree is the preorder
			if int(id) != p || tr.Pre(id) != p || tr.NodeAtPre(p) != id {
				t.Fatalf("n=%d: the traversal reaches node %d at %d", n, id, p)
			}
		}

		// Frozen: no renaming, no growth; NameClades names exactly the
		// unnamed nodes and leaves every other name as it was.
		if err := tr.SetName(0, "x"); err == nil {
			t.Fatalf("n=%d: SetName on an indexed tree succeeded", n)
		}
		if _, err := tr.AddNode("x", tr.Root(), 1); err == nil {
			t.Fatalf("n=%d: AddNode on an indexed tree succeeded", n)
		}
		tr.NameClades()
		for b, want := range built.nodes {
			i := built.pos[b]
			got := tr.Node(i).Name
			if want.Name == "" {
				want.Name = fmt.Sprintf("clade_%d", i)
			}
			if got != want.Name {
				t.Fatalf("n=%d node %d: named %q after NameClades, want %q", n, i, got, want.Name)
			}
			if id, ok := tr.NodeByName(got); !ok || tr.Node(id).Name != got || id > i {
				t.Fatalf("n=%d: NodeByName(%q) = %d, %v; node %d carries it", n, got, id, ok, i)
			}
		}
	}
}

// TestSetNameErrors covers the build-time misuse.
func TestSetNameErrors(t *testing.T) {
	tr := NewTree()
	if err := tr.SetName(0, "x"); err == nil {
		t.Error("SetName on a node of an empty tree succeeded")
	}
	tr.AddNode("r", None, 0)
	if err := tr.SetName(None, "x"); err == nil {
		t.Error("SetName(None) succeeded")
	}
	if err := tr.SetName(0, "root"); err != nil || tr.Node(0).Name != "root" {
		t.Errorf("SetName(0) = %v, node named %q", err, tr.Node(0).Name)
	}
}
