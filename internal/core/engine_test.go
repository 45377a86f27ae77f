package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"drugtree/internal/admission"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// smallDataset is the three-family dataset most engine tests build on.
func smallDataset() datagen.Config {
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 3
	gen.ProteinsPerFamily = 8
	gen.NumLigands = 15
	gen.ActivityDensity = 0.5
	return gen
}

// buildEngine builds an engine with the given config over smallDataset.
func buildEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, _ := buildEngineFrom(t, smallDataset(), cfg)
	return e
}

// buildEngineFrom generates the dataset gen describes, integrates it
// into a fresh in-memory store and builds an engine over it; the
// importer is returned for tests that resync.
func buildEngineFrom(t testing.TB, gen datagen.Config, cfg Config) (*Engine, *integrate.Importer) {
	t.Helper()
	ds, err := datagen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	im := integrate.NewImporter(db, source.NewBundle(ds, netsim.ProfileLAN, 5, true))
	if _, err := im.ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	e, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, im
}

// canonRow encodes a row for multiset comparison with floats rounded
// to 10 significant digits: parallel merges reassociate float
// addition, so bit-exact comparison is unsound.
func canonRow(r store.Row) string {
	var b []byte
	for _, v := range r {
		if v.K == store.KindFloat {
			b = append(b, fmt.Sprintf("|%.9e", v.F)...)
			continue
		}
		b = append(b, '|')
		b = store.AppendValue(b, v)
	}
	return string(b)
}

// canonRows returns the rows' canonRow encodings sorted: two results
// hold the same row multiset exactly when these are equal.
func canonRows(rows []store.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = canonRow(r)
	}
	sort.Strings(out)
	return out
}

func TestEngineBuildsTree(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	if got := len(e.Tree().Leaves()); got != 24 {
		t.Fatalf("tree has %d leaves, want 24", got)
	}
	tab, err := e.DB().Table(TreeTable)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != e.Tree().Len() {
		t.Fatalf("tree_nodes has %d rows, tree has %d nodes", tab.Len(), e.Tree().Len())
	}
	// Indexes exist.
	if typ, ok := tab.HasIndex("pre"); !ok || typ != store.IndexBTree {
		t.Fatal("pre index missing")
	}
	// Root view is consistent.
	root := e.Root()
	if root.LeafCount != 24 || root.Depth != 0 {
		t.Fatalf("root view = %+v", root)
	}
}

func TestEngineErrorsOnEmptyDB(t *testing.T) {
	db, _ := store.Open("")
	defer db.Close()
	if _, err := New(db, DefaultConfig()); err == nil {
		t.Fatal("engine built over empty DB")
	}
}

func TestNodeByName(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	if _, err := e.NodeByName("DT00000"); err != nil {
		t.Fatalf("leaf lookup: %v", err)
	}
	if _, err := e.NodeByName("nope"); err == nil {
		t.Fatal("missing node resolved")
	}
	// Internal clades got synthetic names.
	found := false
	for i := 0; i < e.Tree().Len(); i++ {
		if strings.HasPrefix(e.Tree().Node(phylo.NodeID(i)).Name, "clade_") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no named clades")
	}
}

func TestOpenSubtreeAndCache(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	rootName := e.Root().Name
	views, cached, err := e.OpenSubtree(context.Background(), rootName)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first open reported cached")
	}
	if len(views) != e.Tree().Len() {
		t.Fatalf("root subtree = %d nodes, want %d", len(views), e.Tree().Len())
	}
	// Second open hits the cache.
	_, cached, err = e.OpenSubtree(context.Background(), rootName)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second open missed the cache")
	}
	// A child subtree is answered by subsumption from the root entry.
	children, err := e.Children(rootName)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) == 0 {
		t.Fatal("root has no children")
	}
	_, cached, err = e.OpenSubtree(context.Background(), children[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("child subtree not subsumed by cached root")
	}
	if e.CacheStats().SubsumedHits == 0 {
		t.Fatalf("no subsumed hits recorded: %+v", e.CacheStats())
	}
}

func TestOpenSubtreeNoCacheConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 0
	e := buildEngine(t, cfg)
	name := e.Root().Name
	e.OpenSubtree(context.Background(), name)
	_, cached, err := e.OpenSubtree(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cache disabled but hit reported")
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	rootName := e.Root().Name
	children, _ := e.Children(rootName)
	if len(children) < 2 {
		t.Skip("root too narrow for the prefetch scenario")
	}
	// Visit a child (not the root, whose entry would subsume all).
	_, _, err := e.OpenSubtree(context.Background(), children[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.RunPrefetch(context.Background()); n == 0 {
		t.Fatal("prefetch did nothing")
	}
	// The sibling should now be cached.
	_, cached, err := e.OpenSubtree(context.Background(), children[1].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("prefetch did not warm the sibling subtree")
	}
}

func TestPrefetchDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnablePrefetch = false
	e := buildEngine(t, cfg)
	e.OpenSubtree(context.Background(), e.Root().Name)
	if n := e.RunPrefetch(context.Background()); n != 0 {
		t.Fatalf("prefetch ran while disabled: %d", n)
	}
}

func TestSubtreeActivity(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	rootName := e.Root().Name
	sum, err := e.SubtreeActivity(context.Background(), rootName)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Proteins != 24 {
		t.Fatalf("proteins = %d, want 24", sum.Proteins)
	}
	if sum.Activities == 0 || sum.DistinctLig == 0 {
		t.Fatalf("no activity aggregated: %+v", sum)
	}
	if sum.MeanAff <= 0 || sum.MaxAff < sum.MeanAff {
		t.Fatalf("implausible affinities: %+v", sum)
	}
	// Activities under root equal the whole activities table (all
	// references resolve to leaves).
	act, _ := e.DB().Table(integrate.TableActivities)
	if sum.Activities != int64(act.Len()) {
		t.Fatalf("root subtree activities = %d, table has %d", sum.Activities, act.Len())
	}
}

func TestSubtreeActivityOnLeaf(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	sum, err := e.SubtreeActivity(context.Background(), "DT00000")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Proteins != 1 {
		t.Fatalf("leaf subtree proteins = %d", sum.Proteins)
	}
}

func TestTopLigands(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	hits, err := e.TopLigands(context.Background(), e.Root().Name, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || len(hits) > 5 {
		t.Fatalf("hits = %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].MeanAff > hits[i-1].MeanAff {
			t.Fatalf("hits not sorted by mean affinity: %v", hits)
		}
	}
	if _, err := e.TopLigands(context.Background(), "nope", 5, 1); err == nil {
		t.Fatal("missing node accepted")
	}
}

func TestProteinProfile(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	p, err := e.ProteinProfile(context.Background(), "DT00003")
	if err != nil {
		t.Fatal(err)
	}
	if p.Accession != "DT00003" || p.Organism == "" || p.EC == "" {
		t.Fatalf("profile = %+v", p)
	}
	for i := 1; i < len(p.Activities); i++ {
		if p.Activities[i].MeanAff > p.Activities[i-1].MeanAff {
			t.Fatal("activities not sorted")
		}
	}
	if _, err := e.ProteinProfile(context.Background(), "nope"); err == nil {
		t.Fatal("missing protein accepted")
	}
}

func TestFamilyEnrichment(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	// Find a ligand that actually has activity.
	res, err := e.Query(context.Background(), "SELECT ligand_id, COUNT(*) FROM activities GROUP BY ligand_id ORDER BY COUNT(*) DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	lig := res.Rows[0][0].S
	clades, err := e.FamilyEnrichment(context.Background(), lig, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(clades) == 0 {
		t.Fatal("no enriched clades")
	}
	for i := 1; i < len(clades); i++ {
		if clades[i].MeanAff > clades[i-1].MeanAff {
			t.Fatal("clades not sorted")
		}
	}
}

func TestNaiveAndOptimizedEngineAgree(t *testing.T) {
	optCfg := DefaultConfig()
	naiveCfg := DefaultConfig()
	naiveCfg.QueryOptions = query.NaiveOptions()
	naiveCfg.CacheBytes = 0
	naiveCfg.EnablePrefetch = false

	opt := buildEngine(t, optCfg)
	naive := buildEngine(t, naiveCfg)
	// Same seed → same tree → same answers.
	oSum, err := opt.SubtreeActivity(context.Background(), opt.Root().Name)
	if err != nil {
		t.Fatal(err)
	}
	nSum, err := naive.SubtreeActivity(context.Background(), naive.Root().Name)
	if err != nil {
		t.Fatal(err)
	}
	if oSum.Activities != nSum.Activities || oSum.DistinctLig != nSum.DistinctLig {
		t.Fatalf("engines disagree: %+v vs %+v", oSum, nSum)
	}
	if diff := oSum.MeanAff - nSum.MeanAff; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean affinity differs: %g vs %g", oSum.MeanAff, nSum.MeanAff)
	}
}

func TestResetSession(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	e.OpenSubtree(context.Background(), e.Root().Name)
	e.ResetSession()
	if e.CacheStats().Hits != 0 {
		t.Fatal("reset did not clear stats")
	}
	_, cached, _ := e.OpenSubtree(context.Background(), e.Root().Name)
	if cached {
		t.Fatal("cache survived reset")
	}
}

func TestEnginePersistenceRoundTrip(t *testing.T) {
	// Full durability cycle: integrate into a disk-backed DB, build
	// the engine (publishing tree_nodes), checkpoint, close, reopen,
	// rebuild the engine. tree_nodes is frozen, so neither the
	// checkpoint nor the WAL holds it: the reopened store lacks it until
	// New publishes it again, and queries must agree.
	dir := t.TempDir()
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 2
	gen.ProteinsPerFamily = 6
	gen.NumLigands = 8
	ds, err := datagen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	e1, err := New(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab1, err := db.Table(TreeTable)
	if err != nil {
		t.Fatal(err)
	}
	rows1 := tab1.Snapshot()
	sum1, err := e1.SubtreeActivity(context.Background(), e1.Root().Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Table(TreeTable); err == nil {
		t.Fatalf("the reopened store holds %s", TreeTable)
	}
	e2, err := New(db2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := db2.Table(TreeTable)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Len() != len(rows1) {
		t.Fatalf("tree_nodes holds %d rows after the restart, %d before", tab2.Len(), len(rows1))
	}
	if !slices.Equal(canonRows(tab2.Snapshot()), canonRows(rows1)) {
		t.Fatal("tree_nodes rows changed across restart")
	}
	sum2, err := e2.SubtreeActivity(context.Background(), e2.Root().Name)
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Activities != sum2.Activities || sum1.DistinctLig != sum2.DistinctLig {
		t.Fatalf("answers changed across restart: %+v vs %+v", sum1, sum2)
	}
}

// TestNewRefusesPersistedTreeNodes: a store whose checkpoint holds
// tree_nodes as a stored table (what builds before the frozen kind
// wrote) is refused by New with an error naming the table, and the
// stored table is left as it was.
func TestNewRefusesPersistedTreeNodes(t *testing.T) {
	dir := t.TempDir()
	ds, err := datagen.Generate(smallDataset())
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := integrate.NewImporter(db, source.NewBundle(ds, netsim.ProfileLAN, 1, true)).ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(TreeTable, TreeSchema); err != nil {
		t.Fatal(err)
	}
	row := store.Row{store.IntValue(0), store.StringValue("root"), store.IntValue(-1), store.IntValue(0), store.BoolValue(false),
		store.FloatValue(0), store.FloatValue(0), store.IntValue(1), store.FloatValue(0), store.FloatValue(0), store.IntValue(0)}
	if _, err := db.Insert(TreeTable, row); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	_, err = New(db2, DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), TreeTable) {
		t.Fatalf("New over a persisted %s: err = %v, want one naming the table", TreeTable, err)
	}
	if tab, err := db2.Table(TreeTable); err != nil || tab.Len() != 1 {
		t.Fatalf("the stored %s was touched by the refused build", TreeTable)
	}
}

func TestBreadcrumbs(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	crumbs, err := e.Breadcrumbs(context.Background(), "DT00005")
	if err != nil {
		t.Fatal(err)
	}
	if len(crumbs) < 2 {
		t.Fatalf("breadcrumbs = %d entries", len(crumbs))
	}
	if crumbs[0].Name != e.Root().Name {
		t.Fatalf("first crumb = %q, want root", crumbs[0].Name)
	}
	if crumbs[len(crumbs)-1].Name != "DT00005" {
		t.Fatalf("last crumb = %q, want DT00005", crumbs[len(crumbs)-1].Name)
	}
	for i := 1; i < len(crumbs); i++ {
		if crumbs[i].Depth != crumbs[i-1].Depth+1 {
			t.Fatalf("crumb depths not consecutive: %v", crumbs)
		}
		if crumbs[i].ParentPre != crumbs[i-1].Pre {
			t.Fatalf("crumb %d not child of previous", i)
		}
	}
	if _, err := e.Breadcrumbs(context.Background(), "missing"); err == nil {
		t.Fatal("missing node accepted")
	}
}

func TestSimilarLigands(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	// Use one of the dataset's own ligands as the query: it must rank
	// itself first with similarity 1.
	res, err := e.Query(context.Background(), "SELECT smiles FROM ligands LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	probe := res.Rows[0][0].S
	hits, err := e.SimilarLigands(context.Background(), probe, 5, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no similarity hits")
	}
	if hits[0].Similarity != 1 || hits[0].SMILES != probe {
		t.Fatalf("query ligand not first: %+v", hits[0])
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Similarity > hits[i-1].Similarity {
			t.Fatal("hits not sorted by similarity")
		}
	}
	// Threshold trims the tail.
	strict, err := e.SimilarLigands(context.Background(), probe, 50, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range strict {
		if h.Similarity < 0.999 {
			t.Fatalf("threshold leak: %+v", h)
		}
	}
	// Garbage query structure errors.
	if _, err := e.SimilarLigands(context.Background(), "((((", 5, 0); err == nil {
		t.Fatal("invalid SMILES accepted")
	}
}

func TestEngineWithSyntheticTopology(t *testing.T) {
	// The scaling path: tree from RandomTopology with leaf-named
	// tree_nodes only (no protein data needed for navigation).
	tree, err := datagen.RandomTopology(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := store.Open("")
	defer db.Close()
	e, err := NewWithTree(db, tree, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	views, _, err := e.OpenSubtree(context.Background(), e.Root().Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != tree.Len() {
		t.Fatalf("views = %d, want %d", len(views), tree.Len())
	}
}

// TestTreeNodesHeap is the tier-1 guard on what an engine holds beside
// its tree: NewWithTree over a 100 000-leaf topology (199 999 nodes)
// adds at most 15 MB of live heap to the indexed, named tree and its
// layout — tree_nodes' integer and name vectors and name lookup,
// ≈ 13.9 MB, and the engine's own small state. Its float columns are
// the tree's and the layout's own vectors, which the test checks are
// shared, not copied. Copying them cost 4.8 MB; a stored tree_nodes
// with its B+-tree on pre and hash index on name added 33.5 MB.
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
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
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
	t.Logf("NewWithTree over %d nodes adds %.1f MB", tree.Len(), added/1e6)
	if added > 15e6 {
		t.Errorf("NewWithTree adds %.1f MB of live heap, want ≤ 15", added/1e6)
	}
	img := treeImage(tree, e.Layout())
	for col, v := range map[string][]float64{
		"branch_length": tree.Lengths(), "root_dist": e.Layout().X, "x": e.Layout().X, "y": e.Layout().Y,
	} {
		if got := img.Cols[TreeSchema.ColumnIndex(col)].Float; &got[0] != &v[0] {
			t.Errorf("tree_nodes.%s copies its vector instead of sharing it", col)
		}
	}
	runtime.KeepAlive(e)
}

func TestQueryAdmissionGate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Admission = &admission.Config{MaxConcurrency: 1, MaxQueue: 0}
	e := buildEngine(t, cfg)
	if e.Limiter() == nil {
		t.Fatal("limiter not constructed")
	}

	// Saturate the single slot, then a second query must shed with a
	// typed rejection instead of queueing.
	release, err := e.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Query(context.Background(), "SELECT COUNT(*) FROM proteins")
	if !admission.IsShed(err) {
		t.Fatalf("saturated query got %v, want admission rejection", err)
	}
	if e.Metrics.Counter("query.shed").Value() != 1 {
		t.Fatal("query.shed counter not incremented")
	}
	release()

	// With the slot free the same query runs.
	if _, err := e.Query(context.Background(), "SELECT COUNT(*) FROM proteins"); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	// Drain stops admission; in-flight-free drain returns immediately.
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(context.Background(), "SELECT COUNT(*) FROM proteins"); err == nil {
		t.Fatal("query admitted after drain")
	}
}

func TestQueryStmtCacheBypassesAdmission(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryCacheEntries = 8
	cfg.Admission = &admission.Config{MaxConcurrency: 1, MaxQueue: 0}
	e := buildEngine(t, cfg)
	const q = "SELECT COUNT(*) FROM ligands"
	if _, err := e.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// Saturate the limiter: the cached statement must still answer.
	release, err := e.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := e.Query(context.Background(), q); err != nil {
		t.Fatalf("stmt-cache hit shed by admission: %v", err)
	}
}

// TestTwoBuildsNumberCladesIdentically: two engines built from the same
// dataset (separate stores, so separate map iteration orders) must
// materialize byte-identical tree_nodes — same topology, same preorder
// numbers, same clade names — or a clade name means a different subtree
// from one process to the next.
func TestTwoBuildsNumberCladesIdentically(t *testing.T) {
	dump := func() []string {
		// k-mer distances tie far more often than alignment scores do, so
		// this is the method where input order shows.
		cfg := DefaultConfig()
		cfg.Method = TreeNJKmer
		e := buildEngine(t, cfg)
		tab, err := e.DB().Table(TreeTable)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		tab.Scan(func(_ int64, r store.Row) bool {
			rows = append(rows, string(store.AppendRow(nil, r)))
			return true
		})
		sort.Strings(rows)
		return rows
	}
	first := dump()
	for build := 0; build < 3; build++ {
		next := dump()
		if len(next) != len(first) {
			t.Fatalf("build %d: %d tree_nodes rows, first build has %d", build, len(next), len(first))
		}
		for i := range first {
			if first[i] != next[i] {
				t.Fatalf("build %d: tree_nodes row %d differs from the first build", build, i)
			}
		}
	}
}

// smokeD1 is the smoke-sized dataset D1 the repository benchmark builds
// with -short: 8 families × 40 proteins = 320, just above the 300 at
// which New switches from alignment to k-mer distances, so it is the
// first dataset whose tree the k-mer kernel builds.
func smokeD1() datagen.Config {
	gen := datagen.DefaultConfig()
	gen.Seed = 1
	gen.NumFamilies = 8
	gen.ProteinsPerFamily = 40
	gen.SeqLen = 240
	gen.NumLigands = 80
	gen.ActivityDensity = 0.3
	return gen
}

// TestKmerTreeGolden pins the tree New builds over smokeD1 by the
// sha256 of its Newick text and of its tree_nodes rows in preorder
// (store.AppendRow encoding, so every float is compared bit for bit).
// Any change to the k-mer distances that moves one matrix entry by one
// ulp moves a branch length and fails here.
func TestKmerTreeGolden(t *testing.T) {
	e, _ := buildEngineFrom(t, smokeD1(), DefaultConfig())
	tab, err := e.DB().Table(TreeTable)
	if err != nil {
		t.Fatal(err)
	}
	// Scan lends each row only for the call, so it is encoded there.
	rows := make([][]byte, tab.Len())
	pre := TreeSchema.ColumnIndex("pre")
	tab.Scan(func(_ int64, r store.Row) bool {
		rows[r[pre].I] = store.AppendRow(nil, r)
		return true
	})
	nodes := sha256.New()
	for _, r := range rows {
		nodes.Write(r)
	}
	got := fmt.Sprintf("newick %x\ntree_nodes %x\n",
		sha256.Sum256([]byte(e.Tree().Newick())), nodes.Sum(nil))
	want, err := os.ReadFile("testdata/kmer_tree.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("k-mer tree differs from testdata/kmer_tree.golden:\n%s", got)
	}
}
