package mobile

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"drugtree/internal/phylo"
)

// diffViewportsMap is the oracle the session's merge diff is pinned
// against: the delta from a held node set to the next viewport, found
// with a map probe per node and a sort of what leaves.
func diffViewportsMap(held map[int64]bool, next []WireNode) (add []WireNode, remove []int64) {
	nextSet := make(map[int64]bool, len(next))
	for _, n := range next {
		nextSet[n.Pre] = true
		if !held[n.Pre] {
			add = append(add, n)
		}
	}
	for pre := range held {
		if !nextSet[pre] {
			remove = append(remove, pre)
		}
	}
	sort.Slice(remove, func(i, j int) bool { return remove[i] < remove[j] })
	return add, remove
}

// openWalk returns n foci of a navigation walk from the root over the
// clades of at least minLeaves leaves: mostly down into a child,
// sometimes back up, sometimes a jump to any such clade.
func openWalk(t *phylo.Tree, rng *rand.Rand, n, minLeaves int) []phylo.NodeID {
	var wide []phylo.NodeID
	for id := phylo.NodeID(0); int(id) < t.Len(); id++ {
		if t.LeafCount(id) >= minLeaves {
			wide = append(wide, id)
		}
	}
	walk := make([]phylo.NodeID, 0, n)
	at := t.Root()
	for len(walk) < n {
		walk = append(walk, at)
		node := t.Node(at)
		var down []phylo.NodeID
		for _, c := range node.Children {
			if t.LeafCount(c) >= minLeaves {
				down = append(down, c)
			}
		}
		switch r := rng.Intn(10); {
		case r < 6 && len(down) > 0:
			at = down[rng.Intn(len(down))]
		case r < 8 && node.Parent != phylo.None:
			at = node.Parent
		default:
			at = wide[rng.Intn(len(wide))]
		}
	}
	return walk
}

// TestSessionDeltaMatchesOracle runs seeded Open walks through a
// session of each strategy over the wire and holds every reply to an
// oracle: a LOD-delta reply to the map diff against BuildViewport, a
// LOD one to BuildViewport and a full one to FullTree, each as a
// message encoding to the oracle's bytes (a decoded message re-encodes
// to its own payload, see FuzzDecodeMsg). Afterwards the client holds
// exactly the oracle's view, record for record and field by field, and
// Client.Collapsed marks exactly what the collapse rule marks in it.
func TestSessionDeltaMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e := multifurcatingEngine(t, seed, 120)
		tr := e.Tree()
		for _, budget := range []int{1, 5, 64, 100, tr.Len() + 2} {
			for _, strategy := range []Strategy{StrategyLODDelta, StrategyLOD, StrategyFull} {
				clientConn, serverConn := net.Pipe()
				done := make(chan error, 1)
				go func() { done <- NewServer(e).ServeConn(context.Background(), serverConn) }()
				c, err := Dial(clientConn, strategy, budget)
				if err != nil {
					t.Fatal(err)
				}
				held := map[int64]bool{}
				rng := rand.New(rand.NewSource(seed*1000 + int64(budget)))
				for step, id := range openWalk(tr, rng, 40, 1) {
					got, err := c.Open(tr.Node(id).Name)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("seed %d budget %d %v step %d (focus %d)", seed, budget, strategy, step, id)
					view := FullTree(e)
					if strategy != StrategyFull {
						view = BuildViewport(e, id, budget)
					}
					want := &TreeDelta{Reset: true, Add: view, Focus: int64(id)}
					if strategy == StrategyLODDelta {
						want.Reset = false
						want.Add, want.Remove = diffViewportsMap(held, view)
						for _, n := range want.Add {
							held[n.Pre] = true
						}
						for _, pre := range want.Remove {
							delete(held, pre)
						}
					}
					gotMsg, err := encodeMsg(got)
					if err != nil {
						t.Fatal(err)
					}
					wantMsg, _ := encodeMsg(want)
					if string(gotMsg) != string(wantMsg) {
						t.Fatalf("%s: delta\n got %+v\nwant %+v", at, got, want)
					}
					if len(c.Nodes) != len(view) {
						t.Fatalf("%s: client holds %d nodes, the view has %d", at, len(c.Nodes), len(view))
					}
					collapsed := collapsedIn(view)
					for _, n := range view {
						if h, ok := c.Nodes[n.Pre]; !ok {
							t.Fatalf("%s: client lacks node pre=%d", at, n.Pre)
						} else if h != n {
							t.Fatalf("%s: client holds\n%+v\nthe view has\n%+v", at, h, n)
						}
						if c.Collapsed(n.Pre) != collapsed[n.Pre] {
							t.Fatalf("%s: Collapsed(%d) = %v, the rule says %v", at, n.Pre, c.Collapsed(n.Pre), collapsed[n.Pre])
						}
					}
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				clientConn.Close()
			}
		}
	}
}

// bufBytes is the storage a session buffer keeps.
func bufBytes[S ~[]E, E any](s S) uintptr {
	var e E
	return uintptr(cap(s)) * unsafe.Sizeof(e)
}

// scratchBytes lists the storage of every buffer a LOD-delta session
// reuses between Opens, the held set aside.
func scratchBytes(l *lodSession) []uintptr {
	v := &l.view
	return []uintptr{bufBytes(v.pq), bufBytes(v.view), bufBytes(v.stack), bufBytes(v.order), bufBytes(v.pres),
		bufBytes(l.addAt), bufBytes(l.add), bufBytes(l.remove)}
}

// TestOpenDeltaAllocs checks that once a session's buffers are warm, a
// LOD-delta Open's build and diff allocate nothing, and that a
// huge-budget Open leaves no buffer pinned past maxRetained: its
// scratch is dropped at once, and the held set it grew is dropped by
// the next, ordinary Open.
func TestOpenDeltaAllocs(t *testing.T) {
	e := multifurcatingEngine(t, 5, 4000)
	tr, layout := e.Tree(), e.Layout()
	walk := openWalk(tr, rand.New(rand.NewSource(5)), 32, 64)
	var l lodSession
	openAll := func() {
		for _, id := range walk {
			l.open(tr, layout, id, 100)
		}
	}
	openAll()
	if got := testing.AllocsPerRun(20, openAll); got != 0 {
		t.Errorf("a warm walk of %d Opens allocates %.1f objects, want 0", len(walk), got)
	}

	add, _ := l.open(tr, layout, tr.Root(), tr.Len())
	if len(add) == 0 || bufBytes(l.held) <= maxRetained {
		t.Fatalf("the huge Open held %d nodes (%d bytes): too few to test the bound", len(l.held), bufBytes(l.held))
	}
	for i, n := range scratchBytes(&l) {
		if n > maxRetained {
			t.Errorf("after a huge Open, buffer %d keeps %d bytes, bound %d", i, n, maxRetained)
		}
	}
	l.open(tr, layout, walk[1], 100)
	if n := bufBytes(l.held); n > maxRetained {
		t.Errorf("after an ordinary Open the held set keeps %d bytes, bound %d", n, maxRetained)
	}
	for i, n := range scratchBytes(&l) {
		if n > maxRetained {
			t.Errorf("after an ordinary Open, buffer %d keeps %d bytes, bound %d", i, n, maxRetained)
		}
	}
	if !slices.IsSorted(l.held) || len(l.held) != len(BuildViewport(e, walk[1], 100)) {
		t.Errorf("held set %v is not the last viewport's", l.held)
	}
}

// BenchmarkOpenDelta prices one LOD-delta Open's build and diff at the
// browse workload's budget of 100, over a fixed walk through the clades
// of at least 64 leaves (whose views fill the budget) of a tree of
// ≈ 16 000 nodes.
func BenchmarkOpenDelta(b *testing.B) {
	e := multifurcatingEngine(b, 5, 4000)
	tr, layout := e.Tree(), e.Layout()
	walk := openWalk(tr, rand.New(rand.NewSource(5)), 64, 64)
	var l lodSession
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltaSink, _ = l.open(tr, layout, walk[i%len(walk)], 100)
	}
}

var deltaSink []WireNode
