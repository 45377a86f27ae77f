package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"drugtree/internal/cache"
	"drugtree/internal/datagen"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// wantViews is what OpenSubtree must return for id: nodeView of every
// node of its preorder interval, in preorder.
func wantViews(e *Engine, id phylo.NodeID) []NodeView {
	lo, hi := e.tree.SubtreeInterval(id)
	out := make([]NodeView, 0, hi-lo+1)
	for id := phylo.NodeID(lo); id <= phylo.NodeID(hi); id++ {
		out = append(out, e.nodeView(id))
	}
	return out
}

// TestOpenSubtreeMatchesTree drives OpenSubtree down its three paths —
// miss (executor or coordinator → columnar result → cache fill), exact
// hit (the entry's own batch) and subsumed hit (a window of a wider
// entry) — on every topology and with subsumption ablated, and demands
// the in-memory tree's view of every node each time. Navigation owns
// its cache: the statement cache must not grow behind it.
func TestOpenSubtreeMatchesTree(t *testing.T) {
	tree, err := datagen.RandomTopology(300, 11) // root miss spans several batches, small clades are one short batch
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
	}{
		{"single", func(*Config) {}},
		{"shards=3", func(c *Config) { c.Shards = 3 }},
		{"exact-only", func(c *Config) { c.CacheExactOnly = true }},
		{"naive", func(c *Config) { c.QueryOptions = query.NaiveOptions() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := store.Open("")
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			cfg := DefaultConfig()
			cfg.QueryCacheEntries = 16
			tc.cfg(&cfg)
			e, err := NewWithTree(db, tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ctx := context.Background()
			open := func(id phylo.NodeID, wantCached bool, path string) {
				t.Helper()
				views, cached, err := e.OpenSubtree(ctx, e.tree.Node(id).Name)
				if err != nil {
					t.Fatal(err)
				}
				if cached != wantCached {
					t.Fatalf("%s of %s: cached=%v", path, e.tree.Node(id).Name, cached)
				}
				if want := wantViews(e, id); !reflect.DeepEqual(views, want) {
					t.Fatalf("%s of %s: %d views differ from the tree's %d", path, e.tree.Node(id).Name, len(views), len(want))
				}
			}
			// Clades of different sizes, none containing another's parent
			// entry yet: children of the root and their children.
			root := e.tree.Root()
			var clades []phylo.NodeID
			for _, c := range e.tree.Node(root).Children {
				clades = append(clades, e.tree.Node(c).Children...)
			}
			stmts := e.stmtCache.len()
			for _, id := range clades {
				open(id, false, "miss")
				open(id, true, "exact hit")
			}
			open(root, false, "miss")
			open(root, true, "exact hit")
			subsumed := !cfg.CacheExactOnly
			for _, id := range clades { // the root's entry replaced theirs
				open(id, subsumed, "subsumed hit")
				for _, c := range e.tree.Node(id).Children {
					open(c, subsumed, "subsumed hit")
				}
			}
			if st := e.CacheStats(); (st.SubsumedHits > 0) != subsumed {
				t.Fatalf("cache stats %+v with subsumption=%v", st, subsumed)
			}
			if got := e.stmtCache.len(); got != stmts {
				t.Fatalf("navigation grew the statement cache from %d to %d entries", stmts, got)
			}
			if hits, misses := e.Metrics.Counter("query.stmt_cache_hits").Value(), e.Metrics.Counter("query.stmt_cache_misses").Value(); hits+misses != 0 {
				t.Fatalf("navigation consulted the statement cache: %d hits, %d misses", hits, misses)
			}
		})
	}
}

// TestBreadcrumbsMatchTree asks for the breadcrumbs of every node of a
// tree, single-node and on three shards, whose coordinator hands back
// generic columns, and demands the in-memory tree's path each time:
// nodeView of the root, then of each node down to the one asked for.
func TestBreadcrumbsMatchTree(t *testing.T) {
	tree, err := datagen.RandomTopology(60, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := store.Open("")
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			cfg := DefaultConfig()
			cfg.Shards = shards
			e, err := NewWithTree(db, tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for id := phylo.NodeID(0); int(id) < tree.Len(); id++ {
				var want []NodeView
				for n := id; n != phylo.None; n = tree.Node(n).Parent {
					want = append([]NodeView{e.nodeView(n)}, want...)
				}
				got, err := e.Breadcrumbs(context.Background(), tree.Node(id).Name)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("breadcrumbs of %s:\n got %+v\nwant %+v", tree.Node(id).Name, got, want)
				}
			}
		})
	}
}

// TestTwinEnginesEvictIdentically drives two engines built alike
// through one seeded sequence of opens and prefetches over a cache far
// smaller than the tree: eviction depends only on that sequence, so
// both end with the same counters, evictions included.
func TestTwinEnginesEvictIdentically(t *testing.T) {
	ctx := context.Background()
	twin := func() cache.Stats {
		tree, err := datagen.RandomTopology(1500, 7)
		if err != nil {
			t.Fatal(err)
		}
		db, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		cfg := DefaultConfig()
		cfg.CacheBytes = 48 << 10
		e, err := NewWithTree(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for step := 0; step < 400; step++ {
			// A random node, widened to an ancestor now and then.
			id := phylo.NodeID(rng.Intn(tree.Len()))
			for p := tree.Node(id).Parent; p != phylo.None && tree.LeafCount(p) <= 64 && rng.Intn(2) == 0; p = tree.Node(id).Parent {
				id = p
			}
			if _, _, err := e.OpenSubtree(ctx, tree.Node(id).Name); err != nil {
				t.Fatal(err)
			}
			e.RunPrefetch(ctx)
		}
		return e.CacheStats()
	}
	first, second := twin(), twin()
	if first.Evictions == 0 || first.Hits == 0 {
		t.Fatalf("walk too tame: %+v", first)
	}
	if first != second {
		t.Fatalf("twin engines' cache counters differ:\n%+v\n%+v", first, second)
	}
}

// TestCacheEntriesTaggedWithReadVersion republishes tree_nodes image
// after image — each one stamps the version it creates into x — while
// readers navigate. Whatever OpenSubtree returns must be one generation
// (the rows of a single pinned read), and whatever the cache serves
// under tag v must be generation v: an entry tagged with a version read
// before its statement pinned would carry v+1 rows under tag v.
func TestCacheEntriesTaggedWithReadVersion(t *testing.T) {
	tree, err := datagen.RandomTopology(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e, err := NewWithTree(db, tree, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.Table(TreeTable)
	if err != nil {
		t.Fatal(err)
	}
	const xCol = 8
	stamp := func() error { // one republish: the tree's image with x = the version it creates
		next := tab.Version() + 1
		img := treeImage(tree, e.layout)
		x := make([]float64, tree.Len())
		for i := range x {
			x[i] = float64(next)
		}
		img.Cols[xCol] = store.Col{Kind: store.KindFloat, Float: x}
		if _, err := db.PublishFrozen(TreeTable, TreeSchema, img); err != nil {
			return err
		}
		if got := tab.Version(); got != next {
			return fmt.Errorf("republish produced version %d, stamped %d", got, next)
		}
		return nil
	}
	if err := stamp(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var stop atomic.Bool
	var opens, probes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A republish takes microseconds, so the writer keeps going
		// until the readers have met enough generations, not for a fixed
		// count; the cap bounds a run in which they never do.
		for i := 0; i < 1_000_000 && !stop.Load() && (i < 150 || opens.Load() < 300 || probes.Load() < 30); i++ {
			if err := stamp(); err != nil {
				t.Error(err)
				stop.Store(true)
				return
			}
		}
		stop.Store(true)
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				id := phylo.NodeID((i * 7) % tree.Len())
				lo, hi := tree.SubtreeInterval(id)
				v0 := tab.Version()
				views, _, err := e.OpenSubtree(ctx, tree.Node(id).Name)
				if err != nil {
					t.Error(err)
					stop.Store(true)
					return
				}
				sort.Slice(views, func(a, b int) bool { return views[a].Pre < views[b].Pre })
				want := wantViews(e, id)
				for k := range want {
					want[k].X = views[0].X // the scan of that generation
				}
				if !reflect.DeepEqual(views, want) {
					t.Errorf("open of [%d,%d] is not one generation of the subtree: x=%v…", lo, hi, views[0].X)
					stop.Store(true)
					return
				}
				opens.Add(1)
				// Whatever now sits under the tag this open looked up with
				// must be that generation (any lookup at another version
				// drops it, so probe at once and with that version only).
				if cb, _, ok := e.cache.Get(treeCacheKey, int64(lo), int64(hi), v0); ok {
					probes.Add(1)
					for _, x := range cb.Cols[xCol].Float {
						if x != float64(v0) {
							t.Errorf("entry tagged version %d holds generation-%v rows", v0, x)
							stop.Store(true)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if opens.Load() == 0 || probes.Load() == 0 {
		t.Fatalf("too little exercised: %d opens, %d tagged probes", opens.Load(), probes.Load())
	}
	if n := db.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots still pinned", n)
	}
}
