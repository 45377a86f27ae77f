package shard

import (
	"fmt"
	"testing"

	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// skewCorpus is the query subset the skew topologies replay: one per
// coordinator merge path (scatter, co-partitioned join, partial
// aggregation, top-k merge, pruned range, subtree).
func skewCorpus(clade string) []struct {
	q      string
	keyPos int
} {
	return []struct {
		q      string
		keyPos int
	}{
		{"SELECT * FROM proteins", -1},
		{"SELECT p.accession, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id", -1},
		{"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family", -1},
		{"SELECT COUNT(*), SUM(affinity), MIN(affinity), MAX(affinity) FROM activities", -1},
		{"SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 7", 1},
		{"SELECT pre, name FROM tree_nodes WHERE pre >= 10 AND pre <= 40", -1},
		{fmt.Sprintf("SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '%s') AND is_leaf = TRUE", clade), -1},
	}
}

// TestShardSkewTopologies re-runs the differential subset over
// deliberately unbalanced interval cuts: every row on the first
// shard (the rest empty), every tree row past pre 3 on the last
// shard, and a lopsided middle split. Empty shards must contribute
// empty partials — not errors — to every merge path.
func TestShardSkewTopologies(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	n := int64(tree.Len())
	cases := []struct {
		name string
		cuts []int64
	}{
		{"all-on-first", []int64{n, n + 1, n + 2}},
		{"all-on-last", []int64{1, 2, 3}},
		{"lopsided", []int64{1, n / 2, n/2 + 1}},
	}
	clade := cladeName(tree)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fourWay{
				db:            db,
				tree:          tree,
				singleNaive:   newSingle(db, tree, naiveOptions()),
				singleDefault: newSingle(db, tree, serialOptions()),
				shardNaive:    newCoordinator(t, db, tree, Options{Shards: 4, QueryOptions: naiveOptions(), Cuts: tc.cuts}),
				shardDefault:  newCoordinator(t, db, tree, Options{Shards: 4, QueryOptions: serialOptions(), Cuts: tc.cuts}),
			}
			for _, c := range skewCorpus(clade) {
				runFourWay(t, f, c.q, c.keyPos)
			}
		})
	}
	// Sanity on the extreme topologies: all-on-first really does
	// leave shards 1..3 empty.
	c := newCoordinator(t, db, tree, Options{Shards: 4, QueryOptions: serialOptions(), Cuts: []int64{n, n + 1, n + 2}})
	for i, rows := range partitionedRows(t, c) {
		if i == 0 && rows == 0 {
			t.Fatalf("all-on-first: shard 0 holds no rows")
		}
		if i > 0 && rows != 0 {
			t.Fatalf("all-on-first: shard %d holds %d rows, want 0", i, rows)
		}
	}
}

// TestPartitionBoundaryPredicates queries partition-key values that
// sit exactly on an interval cut: the boundary value belongs to the
// shard whose interval it starts, and predicates straddling the cut
// must gather from both sides.
func TestPartitionBoundaryPredicates(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	n := int64(tree.Len())
	cut := n / 2
	cuts := []int64{cut / 2, cut, cut + cut/2}
	f := &fourWay{
		db:            db,
		tree:          tree,
		singleNaive:   newSingle(db, tree, naiveOptions()),
		singleDefault: newSingle(db, tree, serialOptions()),
		shardNaive:    newCoordinator(t, db, tree, Options{Shards: 4, QueryOptions: naiveOptions(), Cuts: cuts}),
		shardDefault:  newCoordinator(t, db, tree, Options{Shards: 4, QueryOptions: serialOptions(), Cuts: cuts}),
	}
	queries := []string{
		fmt.Sprintf("SELECT pre, name FROM tree_nodes WHERE pre = %d", cut),
		fmt.Sprintf("SELECT pre, name FROM tree_nodes WHERE pre = %d", cut-1),
		fmt.Sprintf("SELECT pre FROM tree_nodes WHERE pre >= %d", cut),
		fmt.Sprintf("SELECT pre FROM tree_nodes WHERE pre <= %d", cut),
		fmt.Sprintf("SELECT pre FROM tree_nodes WHERE pre > %d AND pre < %d", cut-2, cut+2),
		fmt.Sprintf("SELECT pre FROM tree_nodes WHERE pre BETWEEN %d AND %d", cut-1, cut),
		fmt.Sprintf("SELECT COUNT(*) FROM tree_nodes WHERE pre >= %d AND pre <= %d", cut, cut),
		// Kind-mismatched literals on the INT partition key: the
		// engine's `=` coerces INT/FLOAT, so %d.0 matches the pre=%d
		// row — the planner must not route the FLOAT literal through
		// the range partitioner (which would prune to shard 0).
		fmt.Sprintf("SELECT pre, name FROM tree_nodes WHERE pre = %d.0", cut),
		fmt.Sprintf("SELECT pre, name FROM tree_nodes WHERE pre = %d.5", cut),
		fmt.Sprintf("SELECT pre FROM tree_nodes WHERE pre >= %d.0", cut),
	}
	for _, q := range queries {
		runFourWay(t, f, q, -1)
	}
}

// TestRangePartitionerBoundaries pins the interval arithmetic
// directly: starts[i] is owned by shard i, starts[i]-1 by shard i-1.
func TestRangePartitionerBoundaries(t *testing.T) {
	p := &rangePartitioner{starts: []int64{0, 10, 20}}
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {1000, 2},
	}
	for _, c := range cases {
		if got := p.Route(store.IntValue(c.v)); got != c.want {
			t.Fatalf("Route(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	iv := func(v int64) *store.Value { x := store.IntValue(v); return &x }
	rangeCases := []struct {
		lo, hi *store.Value
		want   []int
	}{
		{iv(0), iv(9), []int{0}},
		{iv(9), iv(10), []int{0, 1}},
		{iv(10), iv(19), []int{1}},
		{iv(5), iv(25), []int{0, 1, 2}},
		{nil, iv(3), []int{0}},
		{iv(20), nil, []int{2}},
		{iv(15), iv(5), nil},
	}
	for _, c := range rangeCases {
		got := p.RouteRange(c.lo, c.hi)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("RouteRange(%v, %v) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

// TestShardedZipfSkewCorpus partitions a zipf-skewed dataset — the
// datagen knob concentrates activity rows on low-numbered proteins,
// so shard row counts differ wildly — and requires the matrix to
// agree anyway.
func TestShardedZipfSkewCorpus(t *testing.T) {
	cfg := fixtureConfig(11)
	cfg.ActivitySkew = 1.5
	f := newFourWay(t, cfg, 3, nil)
	queries := []struct {
		q      string
		keyPos int
	}{
		{"SELECT protein_id, ligand_id FROM activities", -1},
		{"SELECT protein_id, COUNT(*), AVG(affinity) FROM activities GROUP BY protein_id", -1},
		{"SELECT p.family, COUNT(*) FROM proteins p JOIN activities a ON p.accession = a.protein_id GROUP BY p.family", -1},
		{"SELECT protein_id, affinity FROM activities ORDER BY affinity DESC LIMIT 9", 1},
		{"SELECT COUNT(*), SUM(affinity) FROM activities", -1},
	}
	for _, c := range queries {
		runFourWay(t, f, c.q, c.keyPos)
	}
	// The skew must be real: the busiest shard holds at least twice
	// the rows of the emptiest.
	var lo, hi int64 = 1 << 62, 0
	for _, rows := range partitionedRows(t, f.shardNaive) {
		lo, hi = min(lo, rows), max(hi, rows)
	}
	if hi < 2*lo {
		t.Fatalf("zipf fixture not skewed: shard rows range [%d, %d]", lo, hi)
	}
}

// newSingle builds a single-node engine over the shared fixture.
func newSingle(db *store.DB, tree *phylo.Tree, opts query.Options) *query.Engine {
	return query.NewEngine(query.NewDBCatalog(db, tree), opts)
}
