package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/lint/leaktest"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// TestMain verifies that no test in this package strands a goroutine:
// every scatter fan-out must be fully joined by the time its query
// returns, including cancelled and failed gathers.
func TestMain(m *testing.M) {
	leaktest.VerifyTestMain(m)
}

// fixtureConfig returns the datagen configuration the shard tests
// partition: big enough that every shard holds real work at 3-4
// shards, small enough to keep the matrix fast.
func fixtureConfig(seed int64) datagen.Config {
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	cfg.NumFamilies = 6
	cfg.ProteinsPerFamily = 20
	cfg.SeqLen = 40
	cfg.NumLigands = 40
	cfg.ActivityDensity = 0.5
	return cfg
}

// buildFixture materializes a generated dataset as the four-table
// store the differential corpus queries, plus its indexed tree.
// Unnamed internal tree nodes are given unique clade_<pre> names (the
// same scheme the serving engine applies), which makes the tree's
// name column a sound partition key and gives subtree queries
// named targets.
func buildFixture(t testing.TB, cfg datagen.Config) (*store.DB, *phylo.Tree) {
	t.Helper()
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree := ds.TrueTree
	tree.NameClades()
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	prot, err := db.CreateTable("proteins", store.MustSchema(
		store.Column{Name: "accession", Kind: store.KindString},
		store.Column{Name: "family", Kind: store.KindString},
		store.Column{Name: "length", Kind: store.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	act, err := db.CreateTable("activities", store.MustSchema(
		store.Column{Name: "protein_id", Kind: store.KindString},
		store.Column{Name: "ligand_id", Kind: store.KindString},
		store.Column{Name: "affinity", Kind: store.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	lig, err := db.CreateTable("ligands", store.MustSchema(
		store.Column{Name: "ligand_id", Kind: store.KindString},
		store.Column{Name: "weight", Kind: store.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := db.CreateTable("tree_nodes", store.MustSchema(
		store.Column{Name: "pre", Kind: store.KindInt},
		store.Column{Name: "name", Kind: store.KindString},
		store.Column{Name: "is_leaf", Kind: store.KindBool},
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Proteins {
		db.Insert(prot.Name(), store.Row{
			store.StringValue(p.ID),
			store.StringValue(p.Family),
			store.IntValue(int64(100 + len(p.Residues))),
		})
	}
	for _, a := range ds.Activities {
		db.Insert(act.Name(), store.Row{
			store.StringValue(a.ProteinID),
			store.StringValue(a.LigandID),
			store.FloatValue(a.Affinity),
		})
	}
	for _, l := range ds.Ligands {
		db.Insert(lig.Name(), store.Row{store.StringValue(l.ID), store.FloatValue(l.Weight)})
	}
	for i := 0; i < tree.Len(); i++ {
		id := phylo.NodeID(i)
		db.Insert(nodes.Name(), store.Row{
			store.IntValue(int64(tree.Pre(id))),
			store.StringValue(tree.Node(id).Name),
			store.BoolValue(tree.Node(id).IsLeaf()),
		})
	}
	prot.CreateIndex("accession", store.IndexHash)
	prot.CreateIndex("family", store.IndexHash)
	prot.CreateIndex("length", store.IndexBTree)
	act.CreateIndex("protein_id", store.IndexHash)
	act.CreateIndex("affinity", store.IndexBTree)
	lig.CreateIndex("ligand_id", store.IndexHash)
	nodes.CreateIndex("pre", store.IndexBTree)
	return db, tree
}

// naiveOptions is the unoptimised serial engine: the baseline corner of
// the four-way matrix (itself held to the reference executor by the
// query package's differential suite).
func naiveOptions() query.Options {
	o := query.NaiveOptions()
	o.Parallelism = 1
	return o
}

func serialOptions() query.Options {
	o := query.DefaultOptions()
	o.Parallelism = 1
	return o
}

// newCoordinator partitions db and registers cleanup.
func newCoordinator(t testing.TB, db *store.DB, tree *phylo.Tree, opts Options) *Coordinator {
	t.Helper()
	c, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// partitionedRows counts each shard's rows across the partitioned
// tables.
func partitionedRows(t testing.TB, c *Coordinator) []int64 {
	t.Helper()
	out := make([]int64, c.Shards())
	for i := range out {
		for name := range c.specs {
			tab, err := c.Shard(i).DB().Table(name)
			if err != nil {
				t.Fatal(err)
			}
			out[i] += int64(tab.Len())
		}
	}
	return out
}

// canonKey encodes a row for multiset comparison with floats rounded
// to 10 significant digits: scatter-gather merges associate SUM/AVG
// additions differently than a single-node run, so bit-exact float
// comparison is unsound.
func canonKey(r store.Row) string {
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

func canonValue(v store.Value) string {
	if v.K == store.KindFloat {
		return fmt.Sprintf("%.9e", v.F)
	}
	return string(store.AppendValue(nil, v))
}

// assertSameRows applies the differential comparison rules, which
// follow the coordinator's merge contract rather than raw byte order
// (single-node and sharded execution legitimately emit rows in
// different physical orders — shard-concatenation vs table order, and
// unspecified relative order among ORDER BY ties):
//
//   - identical row counts, always;
//   - ordered queries (keyPos >= 0): an identical sort-key sequence —
//     the only ordering the contract pins — plus, when no LIMIT can
//     cut a tie group mid-way, identical full-row multisets;
//   - unordered queries: identical full-row multisets, compared
//     order-insensitively.
//
// Unordered LIMIT (any-N-rows semantics) is excluded here and covered
// by TestShardedUnorderedLimit's subset check.
func assertSameRows(t *testing.T, label, q string, keyPos int, base, got *query.Result) {
	t.Helper()
	if len(base.Rows) != len(got.Rows) {
		t.Fatalf("query %q [%s]: row counts diverge: base %d, got %d", q, label, len(base.Rows), len(got.Rows))
	}
	sameMultiset := func() bool {
		counts := map[string]int{}
		for _, r := range base.Rows {
			counts[canonKey(r)]++
		}
		for _, r := range got.Rows {
			k := canonKey(r)
			counts[k]--
			if counts[k] < 0 {
				return false
			}
		}
		return true
	}
	if keyPos >= 0 {
		for j := range base.Rows {
			a, b := base.Rows[j][keyPos], got.Rows[j][keyPos]
			if a.K != b.K || canonValue(a) != canonValue(b) {
				t.Fatalf("query %q [%s]: sort key %d differs: %v vs %v", q, label, j, a, b)
			}
		}
		// With LIMIT, ties at the cut may legitimately keep different
		// rows per topology; without one, the full multisets must
		// agree even though tie order may not.
		if !hasLimit(q) && !sameMultiset() {
			t.Fatalf("query %q [%s]: ordered result multisets differ (%d rows each)", q, label, len(base.Rows))
		}
		return
	}
	if !sameMultiset() {
		t.Fatalf("query %q [%s]: result multisets differ (%d rows each)", q, label, len(base.Rows))
	}
}

// hasLimit reports whether the statement carries a LIMIT clause.
func hasLimit(q string) bool {
	stmt, err := query.Parse(q)
	if err != nil {
		return strings.Contains(strings.ToUpper(q), "LIMIT")
	}
	return stmt.Limit >= 0
}

// runFourWay executes q against the single-node naive-serial baseline
// and the three other corners of the matrix — single-node default,
// sharded naive, sharded default — and requires identical results.
func runFourWay(t *testing.T, f *fourWay, q string, keyPos int) {
	t.Helper()
	ctx := context.Background()
	base, err := f.singleNaive.Query(ctx, q)
	if err != nil {
		t.Fatalf("query %q: single-node baseline: %v", q, err)
	}
	vec, err := f.singleDefault.Query(ctx, q)
	if err != nil {
		t.Fatalf("query %q: single-node default: %v", q, err)
	}
	assertSameRows(t, "single-default", q, keyPos, base, vec)
	sr, err := f.shardNaive.Query(ctx, q)
	if err != nil {
		t.Fatalf("query %q: sharded naive: %v", q, err)
	}
	assertSameRows(t, "shard-naive", q, keyPos, base, sr)
	sv, err := f.shardDefault.Query(ctx, q)
	if err != nil {
		t.Fatalf("query %q: sharded default: %v", q, err)
	}
	assertSameRows(t, "shard-default", q, keyPos, base, sv)
}

// fourWay holds the engine matrix built over one fixture.
type fourWay struct {
	db            *store.DB
	tree          *phylo.Tree
	singleNaive   *query.Engine
	singleDefault *query.Engine
	shardNaive    *Coordinator
	shardDefault  *Coordinator
}

func newFourWay(t testing.TB, cfg datagen.Config, shards int, cuts []int64) *fourWay {
	t.Helper()
	db, tree := buildFixture(t, cfg)
	return &fourWay{
		db:            db,
		tree:          tree,
		singleNaive:   query.NewEngine(query.NewDBCatalog(db, tree), naiveOptions()),
		singleDefault: query.NewEngine(query.NewDBCatalog(db, tree), serialOptions()),
		shardNaive:    newCoordinator(t, db, tree, Options{Shards: shards, QueryOptions: naiveOptions(), Cuts: cuts}),
		shardDefault:  newCoordinator(t, db, tree, Options{Shards: shards, QueryOptions: serialOptions(), Cuts: cuts}),
	}
}

// cladeName returns the name of the first non-root internal node —
// a named subtree with a proper subset of the leaves.
func cladeName(tree *phylo.Tree) string {
	for i := 0; i < tree.Len(); i++ {
		id := phylo.NodeID(i)
		if !tree.Node(id).IsLeaf() && tree.Pre(id) != 0 {
			return tree.Node(id).Name
		}
	}
	return ""
}
