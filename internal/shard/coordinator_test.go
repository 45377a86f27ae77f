package shard

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"drugtree/internal/admission"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// TestClassification pins the strategy the classifier picks per
// statement shape: the differential matrix proves each class
// correct, this test proves the cheap classes are actually taken.
func TestClassification(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: serialOptions()})
	cases := []struct {
		q    string
		want class
	}{
		{"SELECT ligand_id FROM ligands", classReplicated},
		{"SELECT ligand_id FROM ligands WHERE weight > (SELECT AVG(weight) FROM ligands)", classReplicated},
		{"SELECT * FROM proteins", classScatter},
		{"SELECT p.accession, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id", classScatter},
		{"SELECT t.name, a.affinity FROM tree_nodes t JOIN activities a ON t.name = a.protein_id", classScatter},
		{"SELECT accession FROM proteins ORDER BY accession LIMIT 5", classScatterOrdered},
		{"SELECT family, COUNT(*) FROM proteins GROUP BY family", classPartialAgg},
		{"SELECT COUNT(*), AVG(affinity) FROM activities", classPartialAgg},
		{"SELECT COUNT(DISTINCT family) FROM proteins", classFallback},
		{"SELECT accession FROM proteins WHERE accession IN (SELECT protein_id FROM activities)", classFallback},
		// Partitioned tables joined without a partition-key equality
		// cannot run shard-local.
		{"SELECT p.accession FROM proteins p JOIN activities a ON p.length < a.affinity", classFallback},
	}
	for _, tc := range cases {
		stmt, err := query.Parse(tc.q)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		if pl := c.classify(stmt); pl.class != tc.want {
			t.Fatalf("classify %q = %v, want %v", tc.q, pl.class, tc.want)
		}
	}
}

// TestExplainShardPruning checks that EXPLAIN surfaces the gather
// header with shard participation and pruning counts, and that
// EXPLAIN ANALYZE carries per-shard per-operator rows/batches
// annotations.
func TestExplainShardPruning(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: serialOptions()})
	ctx := context.Background()

	// A tight preorder range prunes to the single owning shard.
	res, err := c.Query(ctx, "EXPLAIN SELECT name FROM tree_nodes WHERE pre >= 1 AND pre <= 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Gather [shards=1 pruned=2 mode=scatter]") {
		t.Fatalf("EXPLAIN plan lacks pruned gather header:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "shard 0:") {
		t.Fatalf("EXPLAIN plan lacks per-shard section:\n%s", res.Plan)
	}

	// A directory-routed point lookup prunes to the accession's
	// owner.
	res, err = c.Query(ctx, "EXPLAIN SELECT family FROM proteins WHERE accession = 'DT00000'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "shards=1 pruned=2") {
		t.Fatalf("EXPLAIN point lookup not pruned:\n%s", res.Plan)
	}

	// A kind-mismatched literal on the partition key makes no pruning
	// claim: the engine coerces INT/FLOAT in `=`, so pre = 2.0 can
	// match rows the partitioner would route elsewhere.
	res, err = c.Query(ctx, "EXPLAIN SELECT name FROM tree_nodes WHERE pre = 2.0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Gather [shards=3 pruned=0 mode=scatter]") {
		t.Fatalf("EXPLAIN float-literal lookup wrongly pruned:\n%s", res.Plan)
	}

	// An unconstrained scan participates everywhere.
	res, err = c.Query(ctx, "EXPLAIN SELECT * FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Gather [shards=3 pruned=0 mode=scatter]") {
		t.Fatalf("EXPLAIN full scan header wrong:\n%s", res.Plan)
	}

	// EXPLAIN ANALYZE executes and annotates per-shard operators.
	res, err = c.Query(ctx, "EXPLAIN ANALYZE SELECT * FROM proteins WHERE length > 110")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		t.Fatalf("EXPLAIN ANALYZE returned rows")
	}
	if !strings.Contains(res.Plan, "[rows=") || !strings.Contains(res.Plan, "batches=") {
		t.Fatalf("EXPLAIN ANALYZE lacks runtime counters:\n%s", res.Plan)
	}
	if res.Stats.RowsScanned+res.Stats.RowsIndexed == 0 {
		t.Fatalf("EXPLAIN ANALYZE did not merge shard stats")
	}

	// WITHIN_SUBTREE prunes through the tree's preorder interval:
	// the participating shard count must match the interval's span.
	clade := cladeName(tree)
	res, err = c.Query(ctx, fmt.Sprintf("EXPLAIN SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '%s')", clade))
	if err != nil {
		t.Fatal(err)
	}
	cladeID, _ := tree.NodeByName(clade)
	lo, hi := tree.SubtreeInterval(cladeID)
	part := c.specs["tree_nodes"].keys[0].part
	lov, hiv := store.IntValue(int64(lo)), store.IntValue(int64(hi))
	span := part.RouteRange(&lov, &hiv)
	wantHeader := fmt.Sprintf("Gather [shards=%d pruned=%d mode=scatter]", len(span), 3-len(span))
	if !strings.Contains(res.Plan, wantHeader) {
		t.Fatalf("EXPLAIN subtree query header != %q:\n%s", wantHeader, res.Plan)
	}
}

// TestPerShardAdmission gives every shard its own limiter and checks
// that saturating one shard sheds only queries routed to it.
func TestPerShardAdmission(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, Options{
		Shards:       3,
		QueryOptions: serialOptions(),
		Admission:    &admission.Config{MaxConcurrency: 1, MaxQueue: 0},
	})
	ctx := context.Background()

	victim := c.specs["proteins"].keys[0].part.Route(store.StringValue("DT00000"))
	release, err := c.Shard(victim).Limiter().Acquire(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The point lookup routed to the saturated shard sheds.
	_, err = c.Query(ctx, "SELECT family FROM proteins WHERE accession = 'DT00000'")
	if !admission.IsShed(err) {
		t.Fatalf("query to saturated shard: err = %v, want shed", err)
	}

	// A lookup owned by a different shard is admitted normally.
	other := -1
	var otherAcc string
	for i := 0; i < c.Shards(); i++ {
		if i == victim {
			continue
		}
		tab, err := c.Shard(i).DB().Table("proteins")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tab.Snapshot() {
			other, otherAcc = i, r[0].S
			break
		}
		if other >= 0 {
			break
		}
	}
	if other < 0 {
		t.Fatal("no other shard holds proteins")
	}
	res, err := c.Query(ctx, fmt.Sprintf("SELECT family FROM proteins WHERE accession = '%s'", otherAcc))
	if err != nil {
		t.Fatalf("query to unsaturated shard %d: %v", other, err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("point lookup returned %d rows, want 1", len(res.Rows))
	}
	release()

	// After release the victim admits again.
	if _, err := c.Query(ctx, "SELECT family FROM proteins WHERE accession = 'DT00000'"); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}

// TestGatherTables checks the rebalancing primitive in isolation:
// gathered tables union the partitions, keep replicated tables
// single-copy, and carry the source indexes.
func TestGatherTables(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: serialOptions()})
	g, err := c.GatherTables(context.Background(), []string{"proteins", "ligands"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"proteins", "ligands"} {
		src, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != src.Len() {
			t.Fatalf("gathered %s has %d rows, want %d", name, got.Len(), src.Len())
		}
		for _, ix := range src.Indexes() {
			if typ, ok := got.HasIndex(ix.Column); !ok || typ != ix.Type {
				t.Fatalf("gathered %s lacks index on %s", name, ix.Column)
			}
		}
	}
}

// TestPartitionErrors pins the constructor's validation.
func TestPartitionErrors(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	if _, err := Partition(db, tree, Options{Shards: 1, QueryOptions: serialOptions()}); err == nil {
		t.Fatal("Partition with 1 shard did not fail")
	}
	if _, err := Partition(db, nil, Options{Shards: 2, QueryOptions: serialOptions()}); err == nil {
		t.Fatal("Partition without tree did not fail")
	}
	if _, err := Partition(db, tree, Options{Shards: 3, QueryOptions: serialOptions(), Cuts: []int64{5}}); err == nil {
		t.Fatal("Partition with wrong cut count did not fail")
	}
	if _, err := Partition(db, tree, Options{Shards: 3, QueryOptions: serialOptions(), Cuts: []int64{9, 4}}); err == nil {
		t.Fatal("Partition with non-increasing cuts did not fail")
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestPartitionErrorClosesShards makes populate fail after every
// shard store has been opened, and requires the failed construction
// to hand back no coordinator, leak no file handles, and leave the
// source intact.
func TestPartitionErrorClosesShards(t *testing.T) {
	_, tree := buildFixture(t, fixtureConfig(7))
	// A source whose proteins table lacks the partition column makes
	// populate fail after the shard stores are open.
	src, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.CreateTable("proteins", store.MustSchema(
		store.Column{Name: "id", Kind: store.KindString},
	)); err != nil {
		t.Fatal(err)
	}

	before := openFDs(t)
	c, err := Partition(src, tree, Options{Shards: 3, QueryOptions: serialOptions()})
	if err == nil {
		t.Fatal("Partition over a keyless proteins table did not fail")
	}
	if c != nil {
		t.Fatal("failed Partition returned a coordinator")
	}
	if after := openFDs(t); after != before {
		t.Fatalf("failed Partition leaked file descriptors: %d before, %d after", before, after)
	}
	if names := src.TableNames(); len(names) != 1 || names[0] != "proteins" {
		t.Fatalf("failed Partition changed the source tables: %v", names)
	}
}
