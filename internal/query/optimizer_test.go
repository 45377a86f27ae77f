package query

import (
	"context"
	"strings"
	"testing"

	"drugtree/internal/store"
)

func TestFoldConstantsExpressions(t *testing.T) {
	cases := []struct {
		in   Expr
		want string
	}{
		{
			&BinaryExpr{Op: OpAdd, L: &Literal{Val: store.IntValue(2)}, R: &Literal{Val: store.IntValue(3)}},
			"5",
		},
		{
			&BinaryExpr{Op: OpLt, L: &Literal{Val: store.IntValue(1)}, R: &Literal{Val: store.IntValue(2)}},
			"true",
		},
		{
			&BinaryExpr{Op: OpAnd, L: &Literal{Val: store.BoolValue(true)}, R: &ColumnRef{Name: "x"}},
			"x",
		},
		{
			&BinaryExpr{Op: OpAnd, L: &ColumnRef{Name: "x"}, R: &Literal{Val: store.BoolValue(false)}},
			"false",
		},
		{
			&BinaryExpr{Op: OpOr, L: &Literal{Val: store.BoolValue(false)}, R: &ColumnRef{Name: "x"}},
			"x",
		},
		{
			&BinaryExpr{Op: OpOr, L: &ColumnRef{Name: "x"}, R: &Literal{Val: store.BoolValue(true)}},
			"true",
		},
		{
			&NotExpr{E: &Literal{Val: store.BoolValue(false)}},
			"true",
		},
		{
			&NegExpr{E: &Literal{Val: store.IntValue(7)}},
			"-7",
		},
		{
			// Nested: (1+1) = 2 folds all the way to true.
			&BinaryExpr{
				Op: OpEq,
				L:  &BinaryExpr{Op: OpAdd, L: &Literal{Val: store.IntValue(1)}, R: &Literal{Val: store.IntValue(1)}},
				R:  &Literal{Val: store.IntValue(2)},
			},
			"true",
		},
		{
			// Column comparisons stay put.
			&BinaryExpr{Op: OpEq, L: &ColumnRef{Name: "a"}, R: &ColumnRef{Name: "b"}},
			"(a = b)",
		},
	}
	for _, c := range cases {
		if got := foldConstants(c.in).String(); got != c.want {
			t.Errorf("fold(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestFoldDropsTrueFilter(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), "EXPLAIN SELECT accession FROM proteins WHERE 1 = 1")
	if strings.Contains(res.Plan, "Filter") || strings.Contains(res.Plan, "filter") {
		t.Fatalf("tautology survived folding:\n%s", res.Plan)
	}
	// And execution agrees with the unfiltered table.
	all := runQ(t, cat, DefaultOptions(), "SELECT accession FROM proteins WHERE 1 = 1")
	if len(all.Rows) != 60 {
		t.Fatalf("rows = %d", len(all.Rows))
	}
	// A contradiction yields zero rows (kept as a filter).
	none := runQ(t, cat, DefaultOptions(), "SELECT accession FROM proteins WHERE 1 = 2")
	if len(none.Rows) != 0 {
		t.Fatalf("contradiction returned %d rows", len(none.Rows))
	}
}

func TestPruneColumnsNarrowsJoins(t *testing.T) {
	cat := testCatalog(t)
	q := `EXPLAIN SELECT p.accession FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		WHERE a.affinity > 20`
	res := runQ(t, cat, DefaultOptions(), q)
	// The proteins side must be projected down before the join:
	// family/length are dead.
	if !strings.Contains(res.Plan, "Project p.accession") {
		t.Fatalf("no pruning projection in plan:\n%s", res.Plan)
	}
	// Correctness under pruning.
	q2 := `SELECT p.accession FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		WHERE a.affinity >= 4`
	pruned := runQ(t, cat, DefaultOptions(), q2)
	noPrune := DefaultOptions()
	noPrune.PruneColumns = false
	plain := runQ(t, cat, noPrune, q2)
	if !sameRowMultiset(pruned.Rows, plain.Rows) {
		t.Fatalf("pruning changed results: %d vs %d rows", len(pruned.Rows), len(plain.Rows))
	}
}

func TestPruneKeepsJoinKeys(t *testing.T) {
	cat := testCatalog(t)
	// Select nothing from activities: its scan still needs the join
	// key and the filter column.
	q := `SELECT p.family FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		WHERE a.affinity >= 4 AND p.family = 'FAM1'`
	res := runQ(t, cat, DefaultOptions(), q)
	if len(res.Rows) == 0 {
		t.Fatal("no rows; join keys were pruned away")
	}
	for _, r := range res.Rows {
		if r[0].S != "FAM1" {
			t.Fatalf("filter leak: %v", r)
		}
	}
}

func TestPruneWithAggregation(t *testing.T) {
	cat := testCatalog(t)
	q := `SELECT p.family, COUNT(*) AS n, AVG(a.affinity) FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		GROUP BY p.family ORDER BY p.family`
	pruned := runQ(t, cat, DefaultOptions(), q)
	noPrune := DefaultOptions()
	noPrune.PruneColumns = false
	plain := runQ(t, cat, noPrune, q)
	if len(pruned.Rows) != len(plain.Rows) {
		t.Fatalf("group counts differ: %d vs %d", len(pruned.Rows), len(plain.Rows))
	}
	for i := range pruned.Rows {
		if !sameRowMultiset([]store.Row{pruned.Rows[i]}, []store.Row{plain.Rows[i]}) {
			t.Fatalf("row %d differs: %v vs %v", i, pruned.Rows[i], plain.Rows[i])
		}
	}
}

func TestFuzzWithAllPassesIndividuallyToggled(t *testing.T) {
	// Every single-pass-off configuration must agree with the reference
	// executor over a query corpus — catches pass-interaction bugs.
	cat := testCatalog(t)
	configs := []Options{}
	base := DefaultOptions()
	for i := 0; i < 6; i++ {
		o := base
		switch i {
		case 0:
			o.SubtreeRewrite = false
		case 1:
			o.Pushdown = false
		case 2:
			o.JoinReorder = false
		case 3:
			o.UseIndexes = false
		case 4:
			o.ConstantFold = false
		case 5:
			o.PruneColumns = false
		}
		configs = append(configs, o)
	}
	queries := []string{
		"SELECT accession FROM proteins WHERE family = 'FAM1' AND length > 120",
		`SELECT p.accession, l.weight FROM proteins p
		 JOIN activities a ON p.accession = a.protein_id
		 JOIN ligands l ON a.ligand_id = l.ligand_id
		 WHERE a.affinity > 6 AND p.family != 'FAM0'`,
		"SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, 'FAM1') AND is_leaf = TRUE",
		"SELECT family, COUNT(*) FROM proteins GROUP BY family HAVING COUNT(*) > 1",
	}
	for _, q := range queries {
		want, err := refQuery(cat, q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		for ci, o := range configs {
			got, err := NewEngine(cat, o).Query(context.Background(), q)
			if err != nil {
				t.Fatalf("config %d %q: %v", ci, q, err)
			}
			if !sameRowMultiset(want.Rows, got.Rows) {
				t.Fatalf("config %d disagrees on %q: %d vs %d rows", ci, q, len(want.Rows), len(got.Rows))
			}
		}
	}
}
