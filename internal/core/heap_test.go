package core

import (
	"context"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/phylo"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// heapProfile, when set, names the file TestD1HeapAtRest and
// TestTreeNodesHeap write an in-use heap profile of their engine at
// rest to (`make heap` runs each alone, with a file of its own).
var heapProfile = flag.String("heap-profile", "", "write an in-use heap profile of the engine at rest to this file")

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// writeHeapProfile writes the in-use heap profile to -heap-profile's
// file, when it is set.
func writeHeapProfile(t *testing.T) {
	t.Helper()
	if *heapProfile == "" {
		return
	}
	f, err := os.Create(*heapProfile)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// d1 is dataset D1 as the repository benchmark builds it: 16 families of
// 50 proteins, 200 ligands and ≈ 48.5 k activities.
func d1() datagen.Config {
	gen := datagen.DefaultConfig()
	gen.Seed = 1
	gen.NumFamilies = 16
	gen.ProteinsPerFamily = 50
	gen.SeqLen = 240
	gen.NumLigands = 200
	gen.ActivityDensity = 0.3
	return gen
}

// TestD1HeapAtRest is the tier-1 guard on the heap the D1 workloads
// hold: dataset D1, its four source banks, the store ImportAll fills
// and the engine core.New builds over it, all kept alive, after a
// forced GC. The banks read the dataset's records in place and the
// import commit and Generate leave no append slack, so the data is held
// once (21.9 MB while each bank kept a boxed copy of its rows, 10.9 MB
// after), and the hash-indexed name columns hold int32 codes into the
// DB's dictionary, with no rank index beside them: 8.98 MB measured,
// bound 9.9 (the measurement and a tenth). The race detector does not
// move the figure.
func TestD1HeapAtRest(t *testing.T) {
	base := liveHeap()
	ds, err := datagen.Generate(d1())
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
	im := integrate.NewImporter(db, bundle)
	if _, err := im.ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	e, err := New(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	held := float64(liveHeap()-base) / 1e6
	writeHeapProfile(t)
	t.Logf("D1 (%d activities) at rest: %.2f MB of live heap", len(ds.Activities), held)
	if held > 9.9 {
		t.Errorf("D1 at rest holds %.2f MB of live heap, want ≤ 9.9", held)
	}
	runtime.KeepAlive(im)
	runtime.KeepAlive(e)
}

// TestTreeNodesHeap is the tier-1 guard on what an engine holds beside
// its tree: NewWithTree over a 100 000-leaf topology (199 999 nodes)
// adds at most 0.1 MB of live heap to the indexed, named tree and its
// layout (4.5 kB measured) — the engine's own small state, since
// tree_nodes' image allocates nothing per node: one int32 vector of the
// tree's size would be 0.8 MB. The test checks that
// every column of the image is a computed column over the tree's arrays
// and name arena, cell for cell, or one of the tree's and layout's own
// float vectors, and that its name lookup answers from the tree's name
// index. The image added 5.1 MB while it held name headers, an is_leaf
// vector and its own name slot table; int64 copies of the integer
// columns cost 8.8 MB more, copies of the float columns 4.8 MB, and a
// stored tree_nodes with its B+-tree on pre and hash index on name
// 33.5 MB. With -heap-profile it writes the profile of browse's engine.
func TestTreeNodesHeap(t *testing.T) {
	tree, err := datagen.RandomTopology(100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Index(); err != nil {
		t.Fatal(err)
	}
	tree.NameClades()
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// The base holds a layout like the one NewWithTree builds.
	base := func() uint64 {
		layout := phylo.NewLayout(tree)
		h := liveHeap()
		runtime.KeepAlive(layout)
		return h
	}()
	e, err := NewWithTree(db, tree, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	added := float64(liveHeap()) - float64(base)
	writeHeapProfile(t)
	t.Logf("NewWithTree over %d nodes adds %.1f kB", tree.Len(), added/1e3)
	if added > 0.1e6 {
		t.Errorf("NewWithTree adds %.1f kB of live heap, want ≤ 100", added/1e3)
	}

	n := tree.Len()
	img := treeImage(tree, e.Layout())
	for c, col := range img.Cols {
		name := TreeSchema.Columns[c].Name
		if col.Int != nil || col.Str != nil || col.Null != nil || col.Vals != nil {
			t.Errorf("tree_nodes.%s holds a per-node vector of its own", name)
		}
	}
	for col, v := range map[string][]float64{
		"branch_length": tree.Lengths(), "root_dist": e.Layout().X, "x": e.Layout().X, "y": e.Layout().Y,
	} {
		if got := img.Cols[TreeSchema.ColumnIndex(col)]; got.Compute != nil || &got.Float[0] != &v[0] {
			t.Errorf("tree_nodes.%s copies its vector instead of sharing it", col)
		}
	}
	// Every computed column, filled over every slot, reads the tree.
	slots := make([]int32, n)
	for s := range slots {
		slots[s] = int32(s)
	}
	fill := func(col string) store.Col {
		c := img.Cols[TreeSchema.ColumnIndex(col)]
		dst := store.Col{Kind: c.Kind, Int: make([]int64, n), Str: make([]string, n)}
		if c.Compute == nil {
			if col != "pre" {
				t.Fatalf("tree_nodes.%s is not computed", col)
			}
			return dst // the store computes the dense column: checked below
		}
		c.Compute(&dst, slots)
		return dst
	}
	ends := tree.Ends()
	for col, want := range map[string]func(s int) int64{
		"parent_pre": func(s int) int64 { return int64(tree.Parents()[s]) },
		"depth":      func(s int) int64 { return int64(tree.Depths()[s]) },
		"leaf_count": func(s int) int64 { return int64(tree.LeafCounts()[s]) },
		"end_pre":    func(s int) int64 { return int64(ends[s]) },
		"is_leaf": func(s int) int64 {
			if tree.Node(phylo.NodeID(s)).IsLeaf() {
				return 1
			}
			return 0
		},
	} {
		got := fill(col)
		for s := range n {
			if got.Int[s] != want(s) {
				t.Fatalf("tree_nodes.%s in slot %d = %d, the tree's %d", col, s, got.Int[s], want(s))
			}
		}
	}
	names := fill("name")
	var found []int32
	for s := range n {
		if want := tree.Node(phylo.NodeID(s)).Name; names.Str[s] != want {
			t.Fatalf("tree_nodes.name in slot %d = %q, the tree's %q", s, names.Str[s], want)
		}
		// Every name is one node's: its lookup hands out its own slot.
		if found = img.Lookup(found[:0], store.StringValue(names.Str[s])); len(found) != 1 || found[0] != int32(s) {
			t.Fatalf("the lookup of %q hands out %v, want [%d]", names.Str[s], found, s)
		}
	}
	tab, err := db.Table(TreeTable)
	if err != nil {
		t.Fatal(err)
	}
	pres := 0
	tab.Scan(func(id int64, r store.Row) bool {
		if r[0].I != id || r[1].S != names.Str[id] {
			t.Fatalf("row %d reads pre %d, name %q", id, r[0].I, r[1].S)
		}
		pres++
		return true
	})
	if distinct, _ := tab.DistinctKeys("name"); pres != n || distinct != tree.DistinctNames() {
		t.Fatalf("scanned %d rows of %d; %d distinct names, the tree %d", pres, n, distinct, tree.DistinctNames())
	}
	runtime.KeepAlive(e)
}
