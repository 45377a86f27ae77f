package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"drugtree/internal/admission"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

func strVal(s string) store.Value { return store.StringValue(s) }

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
		pl, err := c.classify(stmt)
		if err != nil {
			t.Fatalf("classify %q: %v", tc.q, err)
		}
		if pl.class != tc.want {
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

// TestFailoverDegradedService fails one shard and requires queries —
// under the AllowPartial policy — to keep answering from the healthy
// remainder, with the loss visible in Health, annotated on results as
// SkippedShards, and the pruned point lookups still exact.
func TestFailoverDegradedService(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: serialOptions(), AllowPartial: true})
	ctx := context.Background()

	total, err := c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	want := total.Rows[0][0].I
	prot, err := db.Table("proteins")
	if err != nil {
		t.Fatal(err)
	}
	if int64(prot.Len()) != want {
		t.Fatalf("sharded COUNT(*) = %d, want %d", want, prot.Len())
	}

	// Fail the shard owning DT00000.
	victim := c.specs["proteins"].keys[0].part.Route(strVal("DT00000"))
	c.FailShard(victim)

	for _, h := range c.Health() {
		wantStatus := "ok"
		if h.Shard == victim {
			wantStatus = "failed"
		}
		if h.Status != wantStatus {
			t.Fatalf("shard %d status %q, want %q", h.Shard, h.Status, wantStatus)
		}
	}

	degraded, err := c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatalf("query against degraded topology: %v", err)
	}
	got := degraded.Rows[0][0].I
	if len(degraded.SkippedShards) != 1 || degraded.SkippedShards[0] != victim {
		t.Fatalf("degraded result SkippedShards = %v, want [%d]", degraded.SkippedShards, victim)
	}
	var victimRows int64
	vt, err := c.Shard(victim).DB().Table("proteins")
	if err != nil {
		t.Fatal(err)
	}
	victimRows = int64(vt.Len())
	if got != want-victimRows {
		t.Fatalf("degraded COUNT(*) = %d, want %d (total %d minus victim's %d)", got, want-victimRows, want, victimRows)
	}

	// A point lookup routed to the failed shard returns empty (served
	// by a healthy shard that provably lacks the row), not an error.
	res, err := c.Query(ctx, "SELECT family FROM proteins WHERE accession = 'DT00000'")
	if err != nil {
		t.Fatalf("point lookup on failed shard: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("point lookup on failed shard returned %d rows", len(res.Rows))
	}

	// The fallback path must also survive on the healthy remainder.
	if _, err := c.Query(ctx, "SELECT COUNT(DISTINCT family) FROM proteins"); err != nil {
		t.Fatalf("fallback on degraded topology: %v", err)
	}

	c.RestoreShard(victim)
	restored, err := c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Rows[0][0].I != want {
		t.Fatalf("restored COUNT(*) = %d, want %d", restored.Rows[0][0].I, want)
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

	victim := c.specs["proteins"].keys[0].part.Route(strVal("DT00000"))
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

// TestDurableReopen partitions into an on-disk directory, reopens
// over the same directory, and requires the reopened topology to
// reuse the persisted shard stores (same row counts, same results)
// rather than double-inserting.
func TestDurableReopen(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	dir := t.TempDir()
	opts := Options{Shards: 3, QueryOptions: serialOptions(), Dir: dir}
	ctx := context.Background()

	c1, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c1.Query(ctx, "SELECT COUNT(*), SUM(length) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	var perShard []int
	for i := 0; i < c1.Shards(); i++ {
		tab, err := c1.Shard(i).DB().Table("proteins")
		if err != nil {
			t.Fatal(err)
		}
		perShard = append(perShard, tab.Len())
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < c2.Shards(); i++ {
		tab, err := c2.Shard(i).DB().Table("proteins")
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() != perShard[i] {
			t.Fatalf("reopened shard %d has %d rows, want %d (duplicated repopulation?)", i, tab.Len(), perShard[i])
		}
	}
	second, err := c2.Query(ctx, "SELECT COUNT(*), SUM(length) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "durable-reopen", "SELECT COUNT(*), SUM(length) FROM proteins", -1, first, second)
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
