package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// TestShardedEngineMatchesSingleNode builds the same integrated
// dataset twice — once single-node, once with Shards=3 over the same
// store — and requires byte-identical answers and EXPLAIN text over the
// integrate-schema corpus: scans, joins, aggregates, top-k, subtree
// predicates and subqueries. Config.Shards is a no-op.
func TestShardedEngineMatchesSingleNode(t *testing.T) {
	single := buildEngine(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Shards = 3
	// Same store, same tree: only Config.Shards differs.
	sharded, err := NewWithTree(single.DB(), single.Tree(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })

	if sharded.Coordinator() == nil {
		t.Fatal("Shards=3 engine has no coordinator")
	}
	if single.Coordinator() != nil {
		t.Fatal("single-node engine reports a coordinator")
	}

	// A named clade for the subtree query: first non-root internal node.
	tree := single.Tree()
	clade := ""
	for id := range phylo.NodeID(tree.Len()) {
		if !tree.Node(id).IsLeaf() && id != 0 {
			clade = tree.Node(id).Name
			break
		}
	}

	corpus := []string{
		"SELECT accession, family, length FROM proteins",
		"SELECT accession FROM proteins WHERE family = 'FAM01'",
		"SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity > 6",
		"SELECT p.accession, n.organism FROM proteins p JOIN annotations n ON p.accession = n.protein_id",
		"SELECT COUNT(*), SUM(affinity), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities",
		"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family",
		"SELECT protein_id, AVG(affinity) AS m FROM activities GROUP BY protein_id ORDER BY m DESC LIMIT 5",
		"SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 7",
		"SELECT ligand_id, weight FROM ligands WHERE weight > 100",
		fmt.Sprintf("SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '%s') AND is_leaf = TRUE", clade),
		fmt.Sprintf("SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", clade),
		"SELECT accession FROM proteins WHERE accession IN (SELECT protein_id FROM activities WHERE affinity > 7)",
		"SELECT pre, name FROM tree_nodes WHERE pre >= 5 AND pre <= 20",
		"SELECT name FROM tree_nodes WHERE pre = 0",
	}
	ctx := context.Background()
	for _, q := range corpus {
		requireSameAnswer(t, ctx, q, single, sharded)
		for _, explain := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
			base, err := single.Query(ctx, explain+q)
			if err != nil {
				t.Fatalf("%s%s: single-node: %v", explain, q, err)
			}
			got, err := sharded.Query(ctx, explain+q)
			if err != nil {
				t.Fatalf("%s%s: sharded: %v", explain, q, err)
			}
			if got.Plan != base.Plan {
				t.Fatalf("%s%s: plans differ:\nsharded:\n%s\nsingle-node:\n%s", explain, q, got.Plan, base.Plan)
			}
		}
	}
}

// requireSameAnswer runs q on both engines and requires the same
// columns and the same rows, in order and byte for byte.
func requireSameAnswer(t *testing.T, ctx context.Context, q string, single, sharded *Engine) {
	t.Helper()
	want, err := single.Query(ctx, q)
	if err != nil {
		t.Fatalf("%s: single-node: %v", q, err)
	}
	got, err := sharded.Query(ctx, q)
	if err != nil {
		t.Fatalf("%s: sharded: %v", q, err)
	}
	if !slices.Equal(got.Columns, want.Columns) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: sharded answers %v × %d rows, single-node %v × %d", q, got.Columns, len(got.Rows), want.Columns, len(want.Rows))
	}
	for i := range want.Rows {
		if g, w := store.AppendRow(nil, got.Rows[i]), store.AppendRow(nil, want.Rows[i]); string(g) != string(w) {
			t.Fatalf("%s: row %d is %v sharded, %v single-node", q, i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestShardedAnswersFollowCommits is the stale-read regression: a
// Shards=3 engine used to answer from copies cut when it was built, so
// a commit to the store moved the single-node COUNT(*) and not the
// sharded one. After every commit — activities inserted, activities
// deleted, a protein and its activities added — both engines over the
// one store must give the same answers, and the coordinator that
// Engine.Coordinator returns must count what the store holds.
func TestShardedAnswersFollowCommits(t *testing.T) {
	single := buildEngine(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Shards = 3
	sharded, err := NewWithTree(single.DB(), single.Tree(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	db, ctx := single.DB(), context.Background()
	root := single.Root().Name

	acts, err := db.Table(integrate.TableActivities)
	if err != nil {
		t.Fatal(err)
	}
	prots, err := db.Table(integrate.TableProteins)
	if err != nil {
		t.Fatal(err)
	}
	leaf := single.Tree().Node(single.Tree().Leaves()[0]).Name
	var firstIDs []int64
	acts.Scan(func(id int64, _ store.Row) bool {
		firstIDs = append(firstIDs, id)
		return len(firstIDs) < 5
	})
	newProt := prots.Snapshot()[0]
	newProt[prots.Schema().ColumnIndex("accession")] = store.StringValue("ZZ-STALE-PROBE")
	commits := []struct {
		name  string
		delta []store.TableDelta
	}{
		{"insert activities", []store.TableDelta{{Table: integrate.TableActivities, Inserts: []store.Row{
			activityRow(leaf, 9.25), activityRow(leaf, 3.5), activityRow(leaf, 7.75),
		}}}},
		{"delete activities", []store.TableDelta{{Table: integrate.TableActivities, DeleteIDs: firstIDs}}},
		{"insert a protein and its activities", []store.TableDelta{
			{Table: integrate.TableProteins, Inserts: []store.Row{newProt}},
			{Table: integrate.TableActivities, Inserts: []store.Row{activityRow("ZZ-STALE-PROBE", 8.5)}},
		}},
	}
	queries := []string{
		"SELECT COUNT(*) FROM activities",
		"SELECT COUNT(*) FROM proteins",
		"SELECT COUNT(*), SUM(affinity), MIN(affinity), MAX(affinity) FROM activities",
		"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family",
		"SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id GROUP BY p.family",
		"SELECT protein_id, ligand_id, affinity FROM activities ORDER BY affinity DESC LIMIT 10",
		fmt.Sprintf("SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", root),
		fmt.Sprintf("SELECT COUNT(*) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", leaf),
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range queries {
			requireSameAnswer(t, ctx, q, single, sharded)
		}
		for name, tab := range map[string]*store.Table{"activities": acts, "proteins": prots} {
			res, err := sharded.Coordinator().Query(ctx, "SELECT COUNT(*) FROM "+name)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].I; got != int64(tab.Len()) {
				t.Fatalf("%s: coordinator counts %d %s, the store holds %d", stage, got, name, tab.Len())
			}
		}
	}
	check("before any commit")
	for _, c := range commits {
		if err := db.CommitDeltas(c.delta); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check("after " + c.name)
	}
}

// TestShardedStatementCache pins that a Shards=3 engine's statement
// cache behaves as the single-node engine's: a repeated statement hits,
// and a commit to a table the statement reads invalidates the entry,
// because the key is the store's table versions, and the next answer
// counts the committed row.
func TestShardedStatementCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 3
	cfg.QueryCacheEntries = 16
	e := buildEngine(t, cfg)
	t.Cleanup(func() { e.Close() })
	ctx := context.Background()
	hits := func() int64 { return e.Metrics.Counter("query.stmt_cache_hits").Value() }

	const q = "SELECT COUNT(*) FROM proteins"
	full, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if hits() != 0 {
		t.Fatalf("first execution hit the cache (%d hits)", hits())
	}
	again, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if hits() != 1 {
		t.Fatalf("repeat execution missed the cache (%d hits)", hits())
	}
	if again.Rows[0][0].I != full.Rows[0][0].I {
		t.Fatalf("cached COUNT = %d, want %d", again.Rows[0][0].I, full.Rows[0][0].I)
	}

	// A commit to proteins moves the key, and the answer counts the row.
	prot, err := e.DB().Table("proteins")
	if err != nil {
		t.Fatal(err)
	}
	row := prot.Snapshot()[0]
	row[prot.Schema().ColumnIndex("accession")] = store.StringValue("ZZ-CACHE-PROBE")
	if err := e.DB().CommitDeltas([]store.TableDelta{{Table: "proteins", Inserts: []store.Row{row}}}); err != nil {
		t.Fatal(err)
	}
	after, err := e.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if hits() != 1 {
		t.Fatalf("a commit to proteins left the sharded entry current (%d hits)", hits())
	}
	if got, want := after.Rows[0][0].I, full.Rows[0][0].I+1; got != want {
		t.Fatalf("post-commit COUNT = %d, want %d", got, want)
	}
	if _, err := e.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if hits() != 2 {
		t.Fatalf("the post-commit entry does not cache (%d hits)", hits())
	}
}

// TestShardedVersionKeyIsTableVersions pins the statement cache's one
// invalidation signal: for the same statement at the same snapshot, a
// sharded engine keys its entry exactly as the single-node engine does.
func TestShardedVersionKeyIsTableVersions(t *testing.T) {
	single := buildEngine(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Shards = 3
	sharded, err := NewWithTree(single.DB(), single.Tree(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	for _, q := range []string{
		"SELECT COUNT(*) FROM proteins",
		"SELECT p.family, COUNT(*) FROM proteins p JOIN activities a ON p.accession = a.protein_id GROUP BY p.family",
	} {
		stmt, err := query.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		snap := single.DB().PinSnapshot()
		want, got := single.versionKey(stmt, snap), sharded.versionKey(stmt, snap)
		snap.Release()
		if got != want {
			t.Fatalf("%s: sharded key %q, single-node key %q", q, got, want)
		}
	}
}

// TestBenchShapesMatchAcrossTopologies runs the six statement shapes of
// the repository benchmark (texts copied from bench/oplist.go, which
// this module cannot import) on Shards ∈ {1, 3} and requires the
// answers a bare naive engine — scan, filter, sort: none of the index
// access paths — gives over the same store: identical row multisets
// (floats to ten digits), and for the ranked shapes the exact sort-key
// sequence, rows tied with the cut key aside. The single-node plans
// must take the paths the shapes are there to exercise, and the
// Shards=3 plans must be the same text.
func TestBenchShapesMatchAcrossTopologies(t *testing.T) {
	single := buildEngine(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Shards = 3
	sharded, err := NewWithTree(single.DB(), single.Tree(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	naive := query.NewEngine(query.NewDBCatalog(single.DB(), single.Tree()), query.NaiveOptions())

	// A clade of 2–4 of the 24 leaves.
	tree := single.Tree()
	clade := ""
	for id := phylo.NodeID(1); int(id) < tree.Len() && clade == ""; id++ {
		if !tree.Node(id).IsLeaf() && tree.LeafCount(id) <= 4 {
			clade = tree.Node(id).Name
		}
	}
	shapes := []struct {
		name, q, path string
		key           int // sort-key column of a ranked shape, -1 otherwise
	}{
		{"overlay_agg", fmt.Sprintf("SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", clade), "OverlayRead", -1},
		{"subtree_join", fmt.Sprintf("SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(p.accession, '%s') AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", clade, 5.5, 100), "IndexRangeScan activities (protein_id ∈ subtree " + clade + " → rank [", 2},
		{"topk", fmt.Sprintf("SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= %.3f ORDER BY affinity DESC LIMIT 20", 5.5), "order=DESC limit=20", 2},
		{"integration3", fmt.Sprintf("SELECT p.accession, n.organism, l.weight, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id JOIN ligands l ON a.ligand_id = l.ligand_id JOIN annotations n ON p.accession = n.protein_id WHERE p.family = '%s' AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", "FAM01", 5.5, 100), "IndexScan proteins", 3},
		{"ligand_rank", fmt.Sprintf("SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') GROUP BY ligand_id ORDER BY AVG(affinity) DESC LIMIT %d", clade, 10), "IndexRangeScan activities (protein_id ∈ subtree " + clade + " → rank [", 2},
		{"family_agg", fmt.Sprintf("SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity >= %.3f GROUP BY p.family", 5.5), "IndexRangeScan activities", -1},
	}
	ctx := context.Background()
	canonVal := func(v store.Value) string { return canonRow(store.Row{v}) }
	for _, sh := range shapes {
		plan, err := single.Query(ctx, "EXPLAIN "+sh.q)
		if err != nil {
			t.Fatalf("%s: EXPLAIN: %v", sh.name, err)
		}
		if !strings.Contains(plan.Plan, sh.path) {
			t.Fatalf("%s: single-node plan lacks %q:\n%s", sh.name, sh.path, plan.Plan)
		}
		splan, err := sharded.Query(ctx, "EXPLAIN "+sh.q)
		if err != nil {
			t.Fatalf("%s: EXPLAIN [shards=3]: %v", sh.name, err)
		}
		if splan.Plan != plan.Plan {
			t.Fatalf("%s: shards=3 plan differs:\n%s\nsingle-node:\n%s", sh.name, splan.Plan, plan.Plan)
		}
		want, err := naive.Query(ctx, sh.q)
		if err != nil {
			t.Fatalf("%s: naive: %v", sh.name, err)
		}
		for topo, e := range map[string]*Engine{"shards=1": single, "shards=3": sharded} {
			got, err := e.Query(ctx, sh.q)
			if err != nil {
				t.Fatalf("%s [%s]: %v", sh.name, topo, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s [%s]: %d rows, naive has %d", sh.name, topo, len(got.Rows), len(want.Rows))
			}
			counts := map[string]int{}
			for i, w := range want.Rows {
				if sh.key >= 0 {
					if canonVal(w[sh.key]) != canonVal(got.Rows[i][sh.key]) {
						t.Fatalf("%s [%s]: sort key %d is %v, naive has %v", sh.name, topo, i, got.Rows[i][sh.key], w[sh.key])
					}
					if canonVal(w[sh.key]) == canonVal(want.Rows[len(want.Rows)-1][sh.key]) {
						continue // tied with the cut: any of the tied rows is right
					}
				}
				counts[canonRow(w)]++
				counts[canonRow(got.Rows[i])]--
			}
			for k, n := range counts {
				if n != 0 {
					t.Fatalf("%s [%s]: rows differ from the naive engine at %s", sh.name, topo, k)
				}
			}
		}
	}
}

// TestDuplicateNodeNameResolvesOneWay gives two clades in different
// thirds of the tree one name and requires every layer to mean the same
// node by it — the lowest node ID, phylo.Tree.NodeByName's rule: the
// engine's navigation lookup and the query engine's WITHIN_SUBTREE, on
// the preorder column and on the name column, on every Config.Shards.
func TestDuplicateNodeNameResolvesOneWay(t *testing.T) {
	tree, err := datagen.RandomTopology(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The largest non-root clade lying wholly in the first third of the
	// preorder, and the largest in the last third with another size.
	var twins [2]phylo.NodeID
	var sizes [2]int
	for id := phylo.NodeID(1); int(id) < tree.Len(); id++ {
		lo, hi := tree.SubtreeInterval(id)
		size := hi - lo + 1
		switch {
		case tree.Node(id).IsLeaf():
		case hi < tree.Len()/3 && size > sizes[0]:
			twins[0], sizes[0] = id, size
		case lo > 2*tree.Len()/3 && size > sizes[1] && size != sizes[0]:
			twins[1], sizes[1] = id, size
		}
	}
	if sizes[0] == 0 || sizes[1] == 0 {
		t.Fatalf("no twin clades found (sizes %v)", sizes)
	}
	// Names freeze at Index: rebuild the same tree, node for node, with
	// the twins renamed first.
	renamed := phylo.NewTree()
	for i := 0; i < tree.Len(); i++ {
		n := tree.Node(phylo.NodeID(i))
		if id, _ := renamed.AddNode(n.Name, n.Parent, n.Length); id == twins[0] || id == twins[1] {
			if err := renamed.SetName(id, "twin"); err != nil {
				t.Fatal(err)
			}
		}
	}
	tree = renamed
	want, wantSize := twins[0], sizes[0]
	if twins[1] < want {
		want, wantSize = twins[1], sizes[1]
	}

	db, _ := store.Open("")
	defer db.Close()
	single, err := NewWithTree(db, tree, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Shards = 3
	sharded, err := NewWithTree(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })

	if id, err := single.NodeByName("twin"); err != nil || id != want {
		t.Fatalf("NodeByName(twin) = %d, %v; want node %d (the lower of %v)", id, err, want, twins)
	}
	ctx := context.Background()
	const q = "SELECT COUNT(*) FROM tree_nodes WHERE WITHIN_SUBTREE(pre, 'twin')"
	for name, e := range map[string]*Engine{"single": single, "sharded": sharded} {
		res, err := e.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.Rows[0][0].I; got != int64(wantSize) {
			t.Errorf("%s: WITHIN_SUBTREE(pre, 'twin') counts %d nodes, node %d's clade has %d (the other twin's %d)",
				name, got, want, wantSize, sizes[0]+sizes[1]-wantSize)
		}
	}
	// On a name column a row means the node its name resolves to: the
	// other twin's row counts under the lower twin's ancestors, not its
	// own, through a key union on small clades and a scan on large ones.
	for clade := range phylo.NodeID(tree.Len()) {
		name := tree.Node(clade).Name
		if id, _ := tree.NodeByName(name); id != clade {
			continue // the other twin: its name means the lower one
		}
		n := 0
		for q := range phylo.NodeID(tree.Len()) {
			if id, _ := tree.NodeByName(tree.Node(q).Name); tree.IsAncestor(clade, id) {
				n++
			}
		}
		q := fmt.Sprintf("SELECT COUNT(*) FROM tree_nodes WHERE WITHIN_SUBTREE(name, '%s')", name)
		for topo, e := range map[string]*Engine{"single": single, "sharded": sharded} {
			res, err := e.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", topo, err)
			}
			if got := res.Rows[0][0].I; got != int64(n) {
				t.Errorf("%s: WITHIN_SUBTREE(name, '%s') counts %d rows, %d name a node in the clade", topo, name, got, n)
			}
		}
	}
}
