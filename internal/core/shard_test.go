package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// canonShardRow encodes a row for multiset comparison with floats
// rounded to 10 significant digits: the coordinator's merge
// reassociates float addition, so bit-exact comparison is unsound.
func canonShardRow(r store.Row) string {
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

// TestShardedEngineMatchesSingleNode builds the same integrated
// dataset twice — once single-node, once partitioned across three
// shards — and requires identical answers over the integrate-schema
// corpus: scans, co-partitioned joins, partial re-aggregation, top-k
// merge, subtree predicates, and the gather fallback.
func TestShardedEngineMatchesSingleNode(t *testing.T) {
	single := buildEngine(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Shards = 3
	// Same store, same tree: only the execution topology differs.
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
	for i := 0; i < tree.Len(); i++ {
		id := tree.NodeAtPre(i)
		if !tree.Node(id).IsLeaf() && i != 0 {
			clade = tree.Node(id).Name
			break
		}
	}

	corpus := []struct {
		q      string
		keyPos int // sort-key column for ordered queries, -1 otherwise
	}{
		{"SELECT accession, family, length FROM proteins", -1},
		{"SELECT accession FROM proteins WHERE family = 'FAM01'", -1},
		{"SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity > 6", -1},
		{"SELECT p.accession, n.organism FROM proteins p JOIN annotations n ON p.accession = n.protein_id", -1},
		{"SELECT COUNT(*), SUM(affinity), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities", -1},
		{"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family", -1},
		{"SELECT protein_id, AVG(affinity) AS m FROM activities GROUP BY protein_id ORDER BY m DESC LIMIT 5", 1},
		{"SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 7", 1},
		{"SELECT ligand_id, weight FROM ligands WHERE weight > 100", -1},
		{fmt.Sprintf("SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '%s') AND is_leaf = TRUE", clade), -1},
		{"SELECT accession FROM proteins WHERE accession IN (SELECT protein_id FROM activities WHERE affinity > 7)", -1},
		{"SELECT pre, name FROM tree_nodes WHERE pre >= 5 AND pre <= 20", -1},
	}
	ctx := context.Background()
	for _, c := range corpus {
		base, err := single.Query(ctx, c.q)
		if err != nil {
			t.Fatalf("query %q: single-node: %v", c.q, err)
		}
		got, err := sharded.Query(ctx, c.q)
		if err != nil {
			t.Fatalf("query %q: sharded: %v", c.q, err)
		}
		if len(base.Rows) != len(got.Rows) {
			t.Fatalf("query %q: row counts diverge: single %d, sharded %d", c.q, len(base.Rows), len(got.Rows))
		}
		if c.keyPos >= 0 {
			for j := range base.Rows {
				a, b := base.Rows[j][c.keyPos], got.Rows[j][c.keyPos]
				if a.K != b.K || canonShardRow(store.Row{a}) != canonShardRow(store.Row{b}) {
					t.Fatalf("query %q: sort key %d differs: %v vs %v", c.q, j, a, b)
				}
			}
			continue
		}
		counts := map[string]int{}
		for _, r := range base.Rows {
			counts[canonShardRow(r)]++
		}
		for _, r := range got.Rows {
			k := canonShardRow(r)
			counts[k]--
			if counts[k] < 0 {
				t.Fatalf("query %q: result multisets differ", c.q)
			}
		}
	}

	// Three partitions, every protein on exactly one of them.
	coord := sharded.Coordinator()
	if coord.Shards() != 3 {
		t.Fatalf("coordinator has %d shards, want 3", coord.Shards())
	}
	src, err := single.DB().Table("proteins")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < coord.Shards(); i++ {
		tab, err := coord.Shard(i).DB().Table("proteins")
		if err != nil {
			t.Fatal(err)
		}
		total += tab.Len()
	}
	if total != src.Len() {
		t.Fatalf("shards hold %d proteins, the source %d", total, src.Len())
	}

	// EXPLAIN through the engine surfaces the gather header, and a
	// point lookup on the partition key prunes to one shard.
	res, err := sharded.Query(ctx, "EXPLAIN SELECT accession FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Gather [shards=3 pruned=0") {
		t.Fatalf("EXPLAIN plan lacks gather header:\n%s", res.Plan)
	}
	res, err = sharded.Query(ctx, "EXPLAIN SELECT name FROM tree_nodes WHERE pre = 0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Gather [shards=1 pruned=2") {
		t.Fatalf("point lookup did not prune shards:\n%s", res.Plan)
	}
}

// TestShardedStatementCache pins that the statement cache fronts the
// scatter-gather coordinator exactly as it fronts the single-node
// executor: a repeated statement hits without re-scattering, and a
// commit to a table the statement reads invalidates the entry, because
// the key is the source store's table versions.
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

	// A commit to proteins on the base store moves the key. The shard
	// copies do not see the row (ROADMAP item 1), so only the miss is
	// pinned here, not the count.
	prot, err := e.DB().Table("proteins")
	if err != nil {
		t.Fatal(err)
	}
	row := prot.Snapshot()[0]
	row[prot.Schema().ColumnIndex("accession")] = store.StringValue("ZZ-CACHE-PROBE")
	if err := e.DB().CommitDeltas([]store.TableDelta{{Table: "proteins", Inserts: []store.Row{row}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if hits() != 1 {
		t.Fatalf("a commit to proteins left the sharded entry current (%d hits)", hits())
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
// must take the paths the shapes are there to exercise.
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

	// A clade of 2–4 of the 24 leaves stays under the union crossover.
	tree := single.Tree()
	clade := ""
	for i := 1; i < tree.Len() && clade == ""; i++ {
		if id := tree.NodeAtPre(i); !tree.Node(id).IsLeaf() && tree.LeafCount(id) <= 4 {
			clade = tree.Node(id).Name
		}
	}
	shapes := []struct {
		name, q, path string
		key           int // sort-key column of a ranked shape, -1 otherwise
	}{
		{"overlay_agg", fmt.Sprintf("SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", clade), "OverlayRead", -1},
		{"subtree_join", fmt.Sprintf("SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(p.accession, '%s') AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", clade, 5.5, 100), "IndexUnionScan activities", 2},
		{"topk", fmt.Sprintf("SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= %.3f ORDER BY affinity DESC LIMIT 20", 5.5), "order=DESC limit=20", 2},
		{"integration3", fmt.Sprintf("SELECT p.accession, n.organism, l.weight, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id JOIN ligands l ON a.ligand_id = l.ligand_id JOIN annotations n ON p.accession = n.protein_id WHERE p.family = '%s' AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", "FAM01", 5.5, 100), "IndexScan proteins", 3},
		{"ligand_rank", fmt.Sprintf("SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') GROUP BY ligand_id ORDER BY AVG(affinity) DESC LIMIT %d", clade, 10), "IndexUnionScan activities", 2},
		{"family_agg", fmt.Sprintf("SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity >= %.3f GROUP BY p.family", 5.5), "IndexRangeScan activities", -1},
	}
	ctx := context.Background()
	canonVal := func(v store.Value) string { return canonShardRow(store.Row{v}) }
	for _, sh := range shapes {
		plan, err := single.Query(ctx, "EXPLAIN "+sh.q)
		if err != nil {
			t.Fatalf("%s: EXPLAIN: %v", sh.name, err)
		}
		if !strings.Contains(plan.Plan, sh.path) {
			t.Fatalf("%s: single-node plan lacks %q:\n%s", sh.name, sh.path, plan.Plan)
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
				counts[canonShardRow(w)]++
				counts[canonShardRow(got.Rows[i])]--
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
// engine's navigation lookup, the query engine's WITHIN_SUBTREE, and the
// shard classifier, whose pruning (by the twin's preorder interval)
// would drop the shard holding the rows if it resolved the other twin.
func TestDuplicateNodeNameResolvesOneWay(t *testing.T) {
	tree, err := datagen.RandomTopology(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The largest non-root clade lying wholly in the first third of the
	// preorder, and the largest in the last third with another size.
	var twins [2]phylo.NodeID
	var sizes [2]int
	for p := 1; p < tree.Len(); p++ {
		id := tree.NodeAtPre(p)
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
	res, err := sharded.Query(ctx, "EXPLAIN "+q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "pruned=2") {
		t.Errorf("a clade inside one third of the tree did not prune to one shard:\n%s", res.Plan)
	}
}
