package query_test

import (
	"context"
	"testing"

	"drugtree/internal/query"
	"drugtree/internal/shard"
)

// TestDifferentialSharded is the sharded column of the differential
// matrix: the generated corpus and the grouped shapes of
// TestDifferentialDatagen, answered by a 3-shard scatter-gather
// coordinator, must give the reference executor's result.
func TestDifferentialSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("datagen differential corpus is slow")
	}
	cat := query.DatagenCatalog(t, 7)
	coord, err := shard.Partition(cat.DB, cat.Tree(), shard.Options{Shards: 3, QueryOptions: query.SerialOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	check := func(q string, ordered bool) {
		t.Helper()
		want, err := query.RefQuery(cat, q)
		if err != nil {
			t.Fatalf("query %q: reference: %v", q, err)
		}
		got, err := coord.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %q: sharded: %v", q, err)
		}
		query.AssertSameResult(t, q+" [sharded]", ordered, want, got)
	}
	tree := cat.Tree()
	g := query.NewQueryGen(11, []string{
		"clade_0", query.CladeOfSize(t, tree, 30, 30), query.CladeOfSize(t, tree, 8, 16), query.CladeOfSize(t, tree, 2, 4), "DT00017",
	})
	for i := 0; i < 60; i++ {
		check(g.Generate())
	}
	for _, q := range []string{
		"SELECT protein_id, COUNT(*), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities GROUP BY protein_id",
		"SELECT ligand_id, COUNT(DISTINCT protein_id) FROM activities GROUP BY ligand_id",
		"SELECT COUNT(*), COUNT(DISTINCT ligand_id) FROM activities",
		"SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id GROUP BY p.family",
	} {
		check(q, false)
	}
}
