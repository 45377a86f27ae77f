package mobile

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"drugtree/internal/core"
	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// buildViewportWalk is the reference BuildViewport is pinned against:
// the same best-first expansion over container/heap (which
// BuildViewport's typed heap must pop in the same order, ties
// included), emitted by walking the focus's whole preorder interval
// with a map probe per node.
func buildViewportWalk(e *core.Engine, focus phylo.NodeID, budget int) []WireNode {
	t := e.Tree()
	layout := e.Layout()
	if budget < 1 {
		budget = 1
	}
	pq := &boxedHeap{}
	taken := map[phylo.NodeID]bool{}
	take := func(id phylo.NodeID) {
		taken[id] = true
		heap.Push(pq, heapItem{id: id, priority: int64(t.LeafCount(id))})
	}
	take(focus)
	for pq.Len() > 0 && len(taken) < budget {
		it := heap.Pop(pq).(heapItem)
		node := t.Node(it.id)
		if node.IsLeaf() || len(taken)+len(node.Children) > budget {
			continue
		}
		for _, c := range node.Children {
			take(c)
		}
	}
	out := make([]WireNode, 0, len(taken))
	lo, hi := t.SubtreeInterval(focus)
	for id := phylo.NodeID(lo); id <= phylo.NodeID(hi); id++ {
		if !taken[id] {
			continue
		}
		node := t.Node(id)
		out = append(out, WireNode{
			Pre: int64(id), Name: node.Name, ParentPre: int64(node.Parent), IsLeaf: node.IsLeaf(),
			LeafCount: int64(t.LeafCount(id)), Length: node.Length,
			X: layout.X[id], Y: layout.Y[id],
		})
	}
	return out
}

// boxedHeap is the max-heap on leaf count as a container/heap.Interface.
type boxedHeap []heapItem

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return h[i].priority > h[j].priority }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *boxedHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// multifurcatingEngine builds an engine over a seeded random tree
// whose internal nodes have two to six children.
func multifurcatingEngine(t testing.TB, seed int64, internal int) *core.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree := phylo.NewTree()
	root, err := tree.AddNode("", phylo.None, 0)
	if err != nil {
		t.Fatal(err)
	}
	leaves := []phylo.NodeID{root}
	for n := 0; n < internal; n++ {
		i := rng.Intn(len(leaves))
		parent := leaves[i]
		leaves[i] = leaves[len(leaves)-1]
		leaves = leaves[:len(leaves)-1]
		for c, fan := 0, 2+rng.Intn(5); c < fan; c++ {
			id, err := tree.AddNode("", parent, 0.05+rng.Float64())
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, id)
		}
	}
	for i, id := range leaves {
		if err := tree.SetName(id, fmt.Sprintf("L%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	e, err := core.NewWithTree(db, tree, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBuildViewportMatchesIntervalWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e := multifurcatingEngine(t, seed, 120)
		tr := e.Tree()
		for id := phylo.NodeID(0); int(id) < tr.Len(); id += 7 {
			lo, hi := tr.SubtreeInterval(id)
			for _, budget := range []int{0, 1, 2, 5, 64, hi - lo + 2, 10 * tr.Len()} {
				got, want := BuildViewport(e, id, budget), buildViewportWalk(e, id, budget)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d focus %d budget %d:\n got %+v\nwant %+v", seed, id, budget, got, want)
				}
				gotMsg, err := encodeMsg(&TreeDelta{Add: got})
				if err != nil {
					t.Fatal(err)
				}
				wantMsg, _ := encodeMsg(&TreeDelta{Add: want})
				if string(gotMsg) != string(wantMsg) {
					t.Fatalf("seed %d focus %d budget %d: encodings differ", seed, id, budget)
				}
			}
		}
	}
}

// TestOpenRunsNoStatement pins what an Open frame does to the engine:
// nothing beyond resolving the name and reading the in-memory tree. A
// LOD-delta session over the root and a few clades, revisits included,
// leaves the statement counter, the navigation cache counters, the
// prefetcher and the semantic cache all at zero.
func TestOpenRunsNoStatement(t *testing.T) {
	e := multifurcatingEngine(t, 9, 60)
	tr := e.Tree()
	// Zoom into the root and a few clades, revisiting the root, opening
	// one child after each.
	var clades []phylo.NodeID
	for id := phylo.NodeID(1); int(id) < tr.Len() && len(clades) < 4; id += 5 {
		if !tr.Node(id).IsLeaf() {
			clades = append(clades, id)
		}
	}
	var opens []string
	for _, id := range append(clades, tr.Root()) {
		opens = append(opens, tr.Node(id).Name, tr.Node(tr.Node(id).Children[0]).Name)
	}
	c := runSession(t, e, StrategyLODDelta, 32, opens)
	if len(c.Nodes) == 0 {
		t.Fatal("the session delivered no nodes")
	}
	for _, name := range []string{"query.count", "navigate.cache_hits", "navigate.cache_misses", "prefetch.executed"} {
		if got := e.Metrics.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d after %d Opens, want 0", name, got, len(opens))
		}
	}
	if got := e.CacheStats().BytesCached; got != 0 {
		t.Errorf("semantic cache holds %d B after %d Opens, want 0", got, len(opens))
	}
}

var decodeSink any

func BenchmarkDecodeTreeDelta(b *testing.B) {
	d := &TreeDelta{Focus: 4711}
	for i := 0; i < 64; i++ {
		d.Add = append(d.Add, WireNode{
			Pre: int64(4711 + i), Name: fmt.Sprintf("clade_%d", 4711+i), ParentPre: int64(4711 + i/2),
			IsLeaf: i%2 == 1, LeafCount: int64(1 + i), Length: 0.25, X: float64(i), Y: 0.5,
		})
		d.Remove = append(d.Remove, int64(100+i))
	}
	payload, err := encodeMsg(d)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decodeSink, err = decodeMsg(payload); err != nil {
			b.Fatal(err)
		}
	}
}
