package phylo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// buildSample builds the tree ((A:1,B:2)ab:0.5,(C:3,D:4)cd:0.25)root
// breadth-first — not in preorder, so Index renumbers it — indexes it,
// and returns the tree and a name→ID map found by a linear scan of the
// indexed tree (build IDs are stale after Index).
func buildSample(t *testing.T) (*Tree, map[string]NodeID) {
	t.Helper()
	tr := NewTree()
	root, err := tr.AddNode("root", None, 0)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := tr.AddNode("ab", root, 0.5)
	cd, _ := tr.AddNode("cd", root, 0.25)
	tr.AddNode("A", ab, 1)
	tr.AddNode("B", ab, 2)
	tr.AddNode("C", cd, 3)
	tr.AddNode("D", cd, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
	ids := map[string]NodeID{}
	for id := range NodeID(tr.Len()) {
		ids[tr.Node(id).Name] = id
	}
	return tr, ids
}

func TestAddNodeErrors(t *testing.T) {
	tr := NewTree()
	if _, err := tr.AddNode("x", 5, 1); err == nil {
		t.Error("out-of-range parent accepted")
	}
	tr.AddNode("r", None, 0)
	if _, err := tr.AddNode("r2", None, 0); err == nil {
		t.Error("second root accepted")
	}
}

func TestIndexImmutability(t *testing.T) {
	tr, _ := buildSample(t)
	if _, err := tr.AddNode("E", tr.Root(), 1); err == nil {
		t.Error("mutation after Index accepted")
	}
}

func TestSubtreeIntervalCoversExactSubtree(t *testing.T) {
	tr, ids := buildSample(t)
	lo, hi := tr.SubtreeInterval(ids["ab"])
	if lo != int(ids["ab"]) {
		t.Fatalf("the interval of node %d starts at %d", ids["ab"], lo)
	}
	got := map[NodeID]bool{}
	for p := lo; p <= hi; p++ {
		got[NodeID(p)] = true
	}
	want := map[NodeID]bool{ids["ab"]: true, ids["A"]: true, ids["B"]: true}
	if len(got) != len(want) {
		t.Fatalf("interval covers %d nodes, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Errorf("interval missing node %d", id)
		}
	}
}

func TestIsAncestor(t *testing.T) {
	tr, ids := buildSample(t)
	cases := []struct {
		a, b string
		want bool
	}{
		{"root", "A", true}, {"ab", "A", true}, {"ab", "B", true},
		{"ab", "C", false}, {"A", "ab", false}, {"A", "A", true},
		{"cd", "D", true}, {"ab", "cd", false},
	}
	for _, c := range cases {
		if got := tr.IsAncestor(ids[c.a], ids[c.b]); got != c.want {
			t.Errorf("IsAncestor(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestNodeByName checks the name index against a linear scan: every
// named node of the sample resolves to itself, unknown and empty names
// to nothing, and — the rule every layer above shares — a duplicated
// name to the node carrying it first in preorder, the lowest ID.
func TestNodeByName(t *testing.T) {
	tr, ids := buildSample(t)
	for name, id := range ids {
		if got, ok := tr.NodeByName(name); !ok || got != id {
			t.Errorf("NodeByName(%q) = %d, %v; want %d", name, got, ok, id)
		}
	}
	for _, name := range []string{"", "nope", "clade_0"} {
		if got, ok := tr.NodeByName(name); ok {
			t.Errorf("NodeByName(%q) resolved to %d", name, got)
		}
	}

	rng := rand.New(rand.NewSource(4))
	big := NewTree()
	big.AddNode("", None, 0)
	given := map[string]bool{}
	for i := 1; i < 5000; i++ {
		name := fmt.Sprintf("n%d", rng.Intn(3000)) // about a third of the names repeat
		if i%7 == 0 {
			name = "" // left for NameClades
		}
		if _, err := big.AddNode(name, NodeID(rng.Intn(i)), 1); err != nil {
			t.Fatal(err)
		}
		given[name] = true
	}
	if err := big.Index(); err != nil {
		t.Fatal(err)
	}
	big.NameClades()
	first := map[string]NodeID{}
	for id := range NodeID(big.Len()) {
		if name := big.Node(id).Name; !given[name] {
			if name != fmt.Sprintf("clade_%d", id) { // NameClades names a clade after its ID
				t.Fatalf("node %d is named %q", id, name)
			}
		}
		if _, dup := first[big.Node(id).Name]; !dup {
			first[big.Node(id).Name] = id
		}
	}
	for i := 0; i < big.Len(); i++ {
		name := big.Node(NodeID(i)).Name
		want := first[name]
		if got, ok := big.NodeByName(name); !ok || got != want {
			t.Fatalf("NodeByName(%q) = %d, %v; want %d", name, got, ok, want)
		}
	}
	big.NameClades() // every node is named: a no-op, as for a second engine over one tree

	late := NewTree()
	lateRoot, _ := late.AddNode("", None, 0)
	late.AddNode("A", lateRoot, 1)
	if err := late.Index(); err != nil {
		t.Fatal(err)
	}
	late.NodeByName("A")
	defer func() {
		if recover() == nil {
			t.Error("NameClades with a node to name after the name index was built did not panic")
		}
	}()
	late.NameClades()
}

// TestIndexBytesPerNode is the tier-1 guard on what a served tree
// costs at rest: on a 100 k-leaf random bifurcating tree named as the
// benchmark's is (L00000… leaves, clade_<ID> clades), everything the
// tree holds after Index() and NameClades() — topology, name arena,
// index arrays and name table, the build form released — is at most 61
// bytes a node (58.2 measured + 5 %).
func TestIndexBytesPerNode(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	tr := yuleBuild(t, rand.New(rand.NewSource(1)), 100000)
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
	tr.NameClades()
	perNode := float64(liveHeap()-before) / float64(tr.Len())
	t.Logf("an indexed, named tree holds %.1f B a node", perNode)
	if perNode > 61 {
		t.Errorf("an indexed, named tree holds %.1f B a node, want ≤ 61", perNode)
	}
	if id, ok := tr.NodeByName("L00042"); !ok || !tr.Node(id).IsLeaf() {
		t.Fatalf("NodeByName(L00042) = %d, %v", id, ok)
	}
}

// pathDistance sums the branch lengths on the path a..b by climbing from
// both ends to the first shared ancestor: the tree-construction tests'
// reference for the metric a tree induces.
func pathDistance(t *Tree, a, b NodeID) float64 {
	fromA := map[NodeID]float64{}
	d := 0.0
	for v := a; v != None; v = t.Node(v).Parent {
		fromA[v] = d
		d += t.Node(v).Length
	}
	d = 0.0
	for v := b; v != None; v = t.Node(v).Parent {
		if da, ok := fromA[v]; ok {
			return da + d
		}
		d += t.Node(v).Length
	}
	return math.NaN()
}

// mustNode resolves name on an indexed tree, failing the test when no
// node carries it.
func mustNode(t *testing.T, tr *Tree, name string) NodeID {
	t.Helper()
	id, ok := tr.NodeByName(name)
	if !ok {
		t.Fatalf("no node named %q", name)
	}
	return id
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestDepthAndRootDistance(t *testing.T) {
	tr, ids := buildSample(t)
	if tr.Depth(ids["root"]) != 0 || tr.Depth(ids["A"]) != 2 {
		t.Errorf("depths wrong: root=%d A=%d", tr.Depth(ids["root"]), tr.Depth(ids["A"]))
	}
	if !approxEqual(tr.RootDistance(ids["B"]), 2.5) {
		t.Errorf("RootDistance(B) = %g, want 2.5", tr.RootDistance(ids["B"]))
	}
	if !approxEqual(tr.Height(), 4.25) {
		t.Errorf("Height = %g, want 4.25", tr.Height())
	}
}

func TestLeafCount(t *testing.T) {
	tr, ids := buildSample(t)
	if tr.LeafCount(ids["root"]) != 4 {
		t.Errorf("LeafCount(root) = %d, want 4", tr.LeafCount(ids["root"]))
	}
	if tr.LeafCount(ids["ab"]) != 2 {
		t.Errorf("LeafCount(ab) = %d, want 2", tr.LeafCount(ids["ab"]))
	}
	if tr.LeafCount(ids["A"]) != 1 {
		t.Errorf("LeafCount(A) = %d, want 1", tr.LeafCount(ids["A"]))
	}
}

func TestSubtreeLeaves(t *testing.T) {
	tr, ids := buildSample(t)
	leaves := tr.SubtreeLeaves(ids["cd"])
	if len(leaves) != 2 {
		t.Fatalf("SubtreeLeaves(cd) = %v", leaves)
	}
	names := []string{tr.Node(leaves[0]).Name, tr.Node(leaves[1]).Name}
	if names[0] != "C" || names[1] != "D" {
		t.Fatalf("leaf names = %v, want [C D]", names)
	}
}

func TestValidateCatchesBadTrees(t *testing.T) {
	// Duplicate leaf names.
	tr := NewTree()
	r, _ := tr.AddNode("", None, 0)
	tr.AddNode("A", r, 1)
	tr.AddNode("A", r, 1)
	if err := tr.Validate(); err == nil {
		t.Error("duplicate leaf names accepted")
	}
	// Negative branch length.
	tr2 := NewTree()
	r2, _ := tr2.AddNode("", None, 0)
	tr2.AddNode("A", r2, -1)
	if err := tr2.Validate(); err == nil {
		t.Error("negative branch length accepted")
	}
	// Empty leaf name.
	tr3 := NewTree()
	r3, _ := tr3.AddNode("", None, 0)
	tr3.AddNode("", r3, 1)
	if err := tr3.Validate(); err == nil {
		t.Error("empty leaf name accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := NewTree()
	if err := tr.Validate(); err != nil {
		t.Errorf("empty tree invalid: %v", err)
	}
	if err := tr.Index(); err == nil {
		t.Error("indexing empty tree accepted")
	}
	if tr.Root() != None {
		t.Error("empty tree has a root")
	}
}

// randomTree builds and indexes a random tree with n nodes.
func randomTree(t *testing.T, n int, seed int64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := NewTree()
	tr.AddNode("", None, 0)
	for i := 1; i < n; i++ {
		parent := NodeID(rng.Intn(i))
		name := ""
		// Give every node a unique leaf-ish name; internal nodes keep
		// their names too (Validate only dedups leaves, names unique
		// anyway).
		name = fmt.Sprintf("n%d", i)
		if _, err := tr.AddNode(name, parent, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDeepCaterpillarTree(t *testing.T) {
	// A 10 000-deep chain must index without stack issues.
	tr := NewTree()
	prev, _ := tr.AddNode("", None, 0)
	for i := 0; i < 10000; i++ {
		var err error
		prev, err = tr.AddNode(fmt.Sprintf("n%d", i), prev, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
	if tr.Depth(prev) != 10000 {
		t.Fatalf("depth = %d, want 10000", tr.Depth(prev))
	}
	leaf := prev
	if lo, hi := tr.SubtreeInterval(tr.Root()); lo != 0 || hi != 10000 || !tr.IsAncestor(tr.Root(), leaf) {
		t.Fatalf("root interval [%d, %d], IsAncestor(root, leaf) = %v", lo, hi, tr.IsAncestor(tr.Root(), leaf))
	}
}

func TestIndexIdempotent(t *testing.T) {
	tr, _ := buildSample(t)
	if err := tr.Index(); err != nil {
		t.Fatalf("second Index: %v", err)
	}
}
