package query

import (
	"context"
	"strings"
	"testing"

	"drugtree/internal/store"
)

func TestParseHaving(t *testing.T) {
	stmt := mustParseQ(t, "SELECT family, COUNT(*) FROM p GROUP BY family HAVING COUNT(*) > 3")
	if stmt.Having == nil {
		t.Fatal("HAVING not parsed")
	}
	b, ok := stmt.Having.(*BinaryExpr)
	if !ok || b.Op != OpGt {
		t.Fatalf("having = %v", stmt.Having)
	}
	if _, ok := b.L.(*AggExpr); !ok {
		t.Fatalf("having left = %T", b.L)
	}
}

func TestParseIn(t *testing.T) {
	stmt := mustParseQ(t, "SELECT * FROM t WHERE x IN (1, 2, 3)")
	// Desugars to (x=1 OR x=2) OR x=3.
	or, ok := stmt.Where.(*BinaryExpr)
	if !ok || or.Op != OpOr {
		t.Fatalf("IN desugar = %v", stmt.Where)
	}
	stmt2 := mustParseQ(t, "SELECT * FROM t WHERE x NOT IN (1, 2)")
	if _, ok := stmt2.Where.(*NotExpr); !ok {
		t.Fatalf("NOT IN desugar = %v", stmt2.Where)
	}
	if _, err := Parse("SELECT * FROM t WHERE x IN ()"); err == nil {
		t.Error("empty IN list accepted")
	}
	if _, err := Parse("SELECT * FROM t WHERE x IN (1,"); err == nil {
		t.Error("truncated IN list accepted")
	}
}

func TestParseCountDistinct(t *testing.T) {
	stmt := mustParseQ(t, "SELECT COUNT(DISTINCT family) FROM p")
	agg := stmt.Items[0].Expr.(*AggExpr)
	if !agg.Distinct || agg.Func != AggCount {
		t.Fatalf("agg = %+v", agg)
	}
	if agg.String() != "COUNT(DISTINCT family)" {
		t.Fatalf("render = %q", agg.String())
	}
	if _, err := Parse("SELECT SUM(DISTINCT x) FROM t"); err == nil {
		t.Error("SUM(DISTINCT) accepted")
	}
}

func TestParseAncestorOf(t *testing.T) {
	stmt := mustParseQ(t, "SELECT * FROM tree_nodes WHERE ANCESTOR_OF(pre, 'P001')")
	ae, ok := stmt.Where.(*AncestorExpr)
	if !ok || ae.Node != "P001" || ae.Column.Name != "pre" {
		t.Fatalf("ancestor expr = %v", stmt.Where)
	}
}

func TestHavingExecution(t *testing.T) {
	cat := testCatalog(t)
	// Each family has 15 proteins; filter on an aggregate in the
	// select list.
	res := runQ(t, cat, DefaultOptions(),
		"SELECT family, COUNT(*) AS n FROM proteins WHERE length < 130 GROUP BY family HAVING COUNT(*) >= 8")
	for _, r := range res.Rows {
		if r[1].I < 8 {
			t.Fatalf("HAVING leak: %v", r)
		}
	}
	// HAVING on an aggregate NOT in the select list (hidden agg).
	res2 := runQ(t, cat, DefaultOptions(),
		"SELECT family FROM proteins GROUP BY family HAVING AVG(length) > 128 ORDER BY family")
	// Families 0..3 have average lengths 128,129,130,131 → FAM1..3.
	if len(res2.Rows) != 3 || res2.Rows[0][0].S != "FAM1" {
		t.Fatalf("hidden-agg HAVING rows = %v", res2.Rows)
	}
	if len(res2.Columns) != 1 || res2.Columns[0] != "family" {
		t.Fatalf("hidden agg leaked into output: %v", res2.Columns)
	}
	// HAVING without aggregation is rejected.
	if _, err := NewEngine(cat, DefaultOptions()).Query(context.Background(),
		"SELECT accession FROM proteins HAVING COUNT(*) > 1"); err == nil {
		t.Fatal("HAVING without GROUP BY accepted")
	}
}

func TestHavingNaiveOptimizedAgree(t *testing.T) {
	cat := testCatalog(t)
	q := `SELECT p.family, COUNT(*) AS n FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		GROUP BY p.family HAVING AVG(a.affinity) >= 6 ORDER BY p.family`
	naive := runQ(t, cat, NaiveOptions(), q)
	opt := runQ(t, cat, DefaultOptions(), q)
	if len(naive.Rows) != len(opt.Rows) {
		t.Fatalf("rows differ: %d vs %d", len(naive.Rows), len(opt.Rows))
	}
	for i := range naive.Rows {
		if naive.Rows[i][0].S != opt.Rows[i][0].S || naive.Rows[i][1].I != opt.Rows[i][1].I {
			t.Fatalf("row %d differs: %v vs %v", i, naive.Rows[i], opt.Rows[i])
		}
	}
}

func TestInExecution(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(),
		"SELECT accession FROM proteins WHERE family IN ('FAM0', 'FAM2')")
	if len(res.Rows) != 30 {
		t.Fatalf("IN rows = %d, want 30", len(res.Rows))
	}
	res2 := runQ(t, cat, DefaultOptions(),
		"SELECT accession FROM proteins WHERE family NOT IN ('FAM0', 'FAM2', 'FAM3')")
	if len(res2.Rows) != 15 {
		t.Fatalf("NOT IN rows = %d, want 15", len(res2.Rows))
	}
}

func TestCountDistinctExecution(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(),
		"SELECT COUNT(DISTINCT family), COUNT(*) FROM proteins")
	if res.Rows[0][0].I != 4 || res.Rows[0][1].I != 60 {
		t.Fatalf("distinct counts = %v", res.Rows[0])
	}
	// Per-group distinct.
	res2 := runQ(t, cat, DefaultOptions(),
		"SELECT family, COUNT(DISTINCT length) FROM proteins GROUP BY family ORDER BY family")
	for _, r := range res2.Rows {
		if r[1].I != 15 { // lengths unique per family in the fixture
			t.Fatalf("group distinct = %v", r)
		}
	}
}

func TestAncestorOfExecution(t *testing.T) {
	cat := testCatalog(t)
	// Ancestors of leaf P000: root → FAM0 → P000.
	q := "SELECT name FROM tree_nodes WHERE ANCESTOR_OF(pre, 'P000') ORDER BY pre"
	res := runQ(t, cat, DefaultOptions(), q)
	var names []string
	for _, r := range res.Rows {
		names = append(names, r[0].S)
	}
	if strings.Join(names, ",") != "root,FAM0,P000" {
		t.Fatalf("ancestors = %v", names)
	}
	// Naive engine agrees (membership evaluation path).
	naive := runQ(t, cat, NaiveOptions(), q)
	if len(naive.Rows) != len(res.Rows) {
		t.Fatalf("naive %d rows, optimized %d", len(naive.Rows), len(res.Rows))
	}
	// Unknown node errors.
	if _, err := NewEngine(cat, DefaultOptions()).Query(context.Background(),
		"SELECT * FROM tree_nodes WHERE ANCESTOR_OF(pre, 'missing')"); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestTopKPlanAndResults(t *testing.T) {
	cat := testCatalog(t)
	q := "SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 4"
	res := runQ(t, cat, DefaultOptions(), "EXPLAIN "+q)
	if !strings.Contains(res.Plan, "TopK 4") {
		t.Fatalf("expected TopK in plan:\n%s", res.Plan)
	}
	// Results identical to the naive full-sort path.
	opt := runQ(t, cat, DefaultOptions(), q)
	naive := runQ(t, cat, NaiveOptions(), q)
	if len(opt.Rows) != 4 || len(naive.Rows) != 4 {
		t.Fatalf("row counts: %d/%d", len(opt.Rows), len(naive.Rows))
	}
	for i := range opt.Rows {
		if opt.Rows[i][1].I != naive.Rows[i][1].I {
			t.Fatalf("row %d: %v vs %v", i, opt.Rows[i], naive.Rows[i])
		}
	}
	// Ascending order too.
	asc := runQ(t, cat, DefaultOptions(), "SELECT length FROM proteins ORDER BY length LIMIT 3")
	if asc.Rows[0][0].I != 100 || asc.Rows[2][0].I != 102 {
		t.Fatalf("asc topk = %v", asc.Rows)
	}
	// LIMIT larger than input.
	big := runQ(t, cat, DefaultOptions(), "SELECT length FROM proteins ORDER BY length LIMIT 1000")
	if len(big.Rows) != 60 {
		t.Fatalf("oversized topk rows = %d", len(big.Rows))
	}
	// Hidden-sort-column shape: ORDER BY a column absent from the
	// SELECT list still runs as top-k (Project over TopK).
	hidden := runQ(t, cat, DefaultOptions(),
		"EXPLAIN SELECT accession FROM proteins ORDER BY length DESC LIMIT 3")
	if !strings.Contains(hidden.Plan, "TopK 3") {
		t.Fatalf("hidden-column sort did not fuse to TopK:\n%s", hidden.Plan)
	}
	hres := runQ(t, cat, DefaultOptions(),
		"SELECT accession FROM proteins ORDER BY length DESC LIMIT 3")
	if len(hres.Rows) != 3 || hres.Rows[0][0].S != "P059" {
		t.Fatalf("hidden-column topk rows = %v", hres.Rows)
	}
}

// TestBTreeKeyedJoinUsesHashJoin: an equi-join whose key columns carry
// B+-tree indexes on both sides (the one shape the deleted merge join
// served) runs as a hash join and answers as the reference does.
func TestBTreeKeyedJoinUsesHashJoin(t *testing.T) {
	db, _ := store.Open("")
	t.Cleanup(func() { db.Close() })
	a, _ := db.CreateTable("a", store.MustSchema(
		store.Column{Name: "k", Kind: store.KindInt},
		store.Column{Name: "av", Kind: store.KindString},
	))
	bt, _ := db.CreateTable("b", store.MustSchema(
		store.Column{Name: "k", Kind: store.KindInt},
		store.Column{Name: "bv", Kind: store.KindString},
	))
	for i := 0; i < 50; i++ {
		db.Insert(a.Name(), store.Row{store.IntValue(int64(i % 10)), store.StringValue("a")})
		if i%2 == 0 {
			db.Insert(bt.Name(), store.Row{store.IntValue(int64(i % 14)), store.StringValue("b")})
		}
	}
	a.CreateIndex("k", store.IndexBTree)
	bt.CreateIndex("k", store.IndexBTree)
	cat := NewDBCatalog(db, nil)

	q := "SELECT x.av, y.bv FROM a x JOIN b y ON x.k = y.k"
	if plan := runDifferential(t, cat, q, false); !strings.Contains(plan, "HashJoin (1 key(s), build=") {
		t.Fatalf("expected HashJoin:\n%s", plan)
	}
	if res := runQ(t, cat, DefaultOptions(), q); len(res.Rows) == 0 {
		t.Fatal("join returned nothing")
	}
}

func TestJoinDuplicateKeysBothSides(t *testing.T) {
	db, _ := store.Open("")
	t.Cleanup(func() { db.Close() })
	a, _ := db.CreateTable("a", store.MustSchema(
		store.Column{Name: "k", Kind: store.KindInt},
		store.Column{Name: "i", Kind: store.KindInt},
	))
	bt, _ := db.CreateTable("b", store.MustSchema(
		store.Column{Name: "k", Kind: store.KindInt},
		store.Column{Name: "j", Kind: store.KindInt},
	))
	// Key 5 appears 3 times left, 4 times right → 12 output rows.
	for i := 0; i < 3; i++ {
		db.Insert(a.Name(), store.Row{store.IntValue(5), store.IntValue(int64(i))})
	}
	for j := 0; j < 4; j++ {
		db.Insert(bt.Name(), store.Row{store.IntValue(5), store.IntValue(int64(j))})
	}
	// Non-matching keys around it.
	db.Insert(a.Name(), store.Row{store.IntValue(1), store.IntValue(99)})
	db.Insert(bt.Name(), store.Row{store.IntValue(9), store.IntValue(99)})
	a.CreateIndex("k", store.IndexBTree)
	bt.CreateIndex("k", store.IndexBTree)
	cat := NewDBCatalog(db, nil)
	res := runQ(t, cat, DefaultOptions(), "SELECT x.i, y.j FROM a x JOIN b y ON x.k = y.k")
	if len(res.Rows) != 12 {
		t.Fatalf("duplicate-key block join = %d rows, want 12", len(res.Rows))
	}
}
