package mobile

import (
	"container/heap"
	"context"
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

// TestOpenVisitsSubtree pins what an Open frame does to the engine: the
// same visit record (seen through what the prefetcher then suggests),
// cache fills and navigate counters as the OpenSubtree + RunPrefetch
// pair it used to issue, step by step on a twin engine.
func TestOpenVisitsSubtree(t *testing.T) {
	served, twin := multifurcatingEngine(t, 9, 60), multifurcatingEngine(t, 9, 60)
	tr := served.Tree()
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
	runSession(t, served, StrategyLODDelta, 32, opens)
	for _, name := range opens {
		if _, _, err := twin.OpenSubtree(context.Background(), name); err != nil {
			t.Fatal(err)
		}
		twin.RunPrefetch(context.Background())
	}
	for _, c := range []string{"navigate.cache_hits", "navigate.cache_misses", "prefetch.executed", "query.count"} {
		got, want := served.Metrics.Counter(c).Value(), twin.Metrics.Counter(c).Value()
		if got != want {
			t.Errorf("%s = %d over the wire, %d through OpenSubtree", c, got, want)
		}
	}
	if got, want := served.CacheStats(), twin.CacheStats(); got != want {
		t.Errorf("cache stats %+v over the wire, %+v through OpenSubtree", got, want)
	}
	if served.Metrics.Counter("navigate.cache_misses").Value() == 0 ||
		served.Metrics.Counter("navigate.cache_hits").Value() == 0 ||
		served.Metrics.Counter("prefetch.executed").Value() == 0 ||
		served.CacheStats().BytesCached == 0 {
		t.Errorf("session exercised too little: hits=%d misses=%d prefetched=%d cached=%d B",
			served.Metrics.Counter("navigate.cache_hits").Value(),
			served.Metrics.Counter("navigate.cache_misses").Value(),
			served.Metrics.Counter("prefetch.executed").Value(),
			served.CacheStats().BytesCached)
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
