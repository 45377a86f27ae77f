package query

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// testCatalog builds an in-memory catalog:
//
//	proteins(accession, family, length) — 60 rows, 4 families
//	activities(protein_id, ligand_id, affinity) — multiple per protein
//	ligands(ligand_id, weight)
//	tree_nodes(pre, name, is_leaf) — a small tree with families as
//	internal nodes
//	wide_a(k), wide_b(k) — integers around 2^53, where two of them
//	widen to one float64
func testCatalog(t *testing.T) *DBCatalog { return testCatalogWith(t, true) }

// testCatalogWith is testCatalog, leaving tree_nodes out unless
// withTreeNodes is set: an engine built over the catalog publishes its
// own.
func testCatalogWith(t *testing.T, withTreeNodes bool) *DBCatalog {
	t.Helper()
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
	for i := 0; i < 60; i++ {
		acc := fmt.Sprintf("P%03d", i)
		fam := fmt.Sprintf("FAM%d", i%4)
		db.Insert(prot.Name(), store.Row{store.StringValue(acc), store.StringValue(fam), store.IntValue(int64(100 + i))})
		for j := 0; j < 3; j++ {
			lid := fmt.Sprintf("L%02d", (i+j)%10)
			db.Insert(act.Name(), store.Row{store.StringValue(acc), store.StringValue(lid), store.FloatValue(float64(4 + (i+j)%7))})
		}
	}
	for j := 0; j < 10; j++ {
		db.Insert(lig.Name(), store.Row{store.StringValue(fmt.Sprintf("L%02d", j)), store.FloatValue(float64(100 + 10*j))})
	}
	prot.CreateIndex("accession", store.IndexHash)
	prot.CreateIndex("family", store.IndexHash)
	prot.CreateIndex("length", store.IndexBTree)
	act.CreateIndex("protein_id", store.IndexHash)
	act.CreateIndex("affinity", store.IndexBTree)
	lig.CreateIndex("ligand_id", store.IndexHash)

	// Small tree: root(fam0(P000..), fam1(...)).
	tree := phylo.NewTree()
	root, _ := tree.AddNode("root", phylo.None, 0)
	f0, _ := tree.AddNode("FAM0", root, 1)
	f1, _ := tree.AddNode("FAM1", root, 1)
	tree.AddNode("P000", f0, 1)
	tree.AddNode("P004", f0, 1)
	tree.AddNode("P001", f1, 1)
	tree.AddNode("P005", f1, 1)
	if err := tree.Index(); err != nil {
		t.Fatal(err)
	}
	rankByTree(t, db, tree)
	if withTreeNodes {
		nodes, err := db.CreateTable("tree_nodes", store.MustSchema(
			store.Column{Name: "pre", Kind: store.KindInt},
			store.Column{Name: "name", Kind: store.KindString},
			store.Column{Name: "is_leaf", Kind: store.KindBool},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tree.Len(); i++ {
			id := phylo.NodeID(i)
			db.Insert(nodes.Name(), store.Row{
				store.IntValue(int64(id)),
				store.StringValue(tree.Node(id).Name),
				store.BoolValue(tree.Node(id).IsLeaf()),
			})
		}
		nodes.CreateIndex("pre", store.IndexBTree)
	}
	for name, ks := range map[string][]int64{"wide_a": {1<<53 + 1, 1}, "wide_b": {1 << 53, 1<<53 + 1, 1}} {
		wide, err := db.CreateTable(name, store.MustSchema(store.Column{Name: "k", Kind: store.KindInt}))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			db.Insert(wide.Name(), store.Row{store.IntValue(k)})
		}
	}
	// specials holds the float cells a comparison must order as
	// store.Compare does — NaN below every number and equal only to NaN,
	// ±Inf, −0 equal to 0 — and a NULL; x is B+-tree indexed, y holds the
	// same cells unindexed.
	specials, err := db.CreateTable("specials", store.MustSchema(
		store.Column{Name: "i", Kind: store.KindInt},
		store.Column{Name: "x", Kind: store.KindFloat},
		store.Column{Name: "y", Kind: store.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []store.Value{
		store.FloatValue(math.NaN()), store.FloatValue(5), store.FloatValue(math.Inf(1)), store.FloatValue(math.Inf(-1)),
		store.FloatValue(math.Copysign(0, -1)), store.FloatValue(0), store.NullValue(), store.FloatValue(5), store.FloatValue(math.NaN()),
	} {
		db.Insert(specials.Name(), store.Row{store.IntValue(int64(i + 1)), f, f})
	}
	specials.CreateIndex("x", store.IndexBTree)
	// errs places NULLs so that evaluating an expression a column at a
	// time fails at another row, with another error, than row order
	// does: row 0's family is NULL, so -family fails first at row 1,
	// while NOT length fails at row 0. Its rows are inserted in pos order
	// and the four that can fail share k = 1, so a scan, a walk of either
	// index and a join on k all meet them in the same order; the all-NULL
	// rows after them, one per k, make a join on k key its probe.
	errs, err := db.CreateTable("errs", store.MustSchema(
		store.Column{Name: "k", Kind: store.KindInt},
		store.Column{Name: "pos", Kind: store.KindInt},
		store.Column{Name: "family", Kind: store.KindString},
		store.Column{Name: "length", Kind: store.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for pos, r := range []struct{ family, length store.Value }{
		{store.NullValue(), store.IntValue(3)},
		{store.StringValue("f"), store.IntValue(4)},
		{store.NullValue(), store.NullValue()},
		{store.StringValue("g"), store.IntValue(5)},
	} {
		db.Insert(errs.Name(), store.Row{store.IntValue(1), store.IntValue(int64(pos)), r.family, r.length})
	}
	for pos := 4; pos < 64; pos++ {
		db.Insert(errs.Name(), store.Row{store.IntValue(int64(pos - 2)), store.IntValue(int64(pos)), store.NullValue(), store.NullValue()})
	}
	errs.CreateIndex("k", store.IndexHash)
	errs.CreateIndex("pos", store.IndexBTree)
	return NewDBCatalog(db, tree)
}

func runQ(t *testing.T, cat Catalog, opts Options, src string) *Result {
	t.Helper()
	return mustQuery(t, NewEngine(cat, opts), src)
}

// mustQuery runs src on eng, failing the test on an error.
func mustQuery(t *testing.T, eng *Engine, src string) *Result {
	t.Helper()
	res, err := eng.Query(context.Background(), src)
	if err != nil {
		t.Fatalf("Query(%q): %v", src, err)
	}
	return res
}

// TestColumnarSinkAdoptsPlanVectors: RunAt over a range scan hands out
// the vectors the scan filled — one copy of the rows in all, where the
// sink used to copy them a second time — and still copies a column
// selected twice, so no two result columns share storage, while every
// configuration answers as the reference executor does.
func TestColumnarSinkAdoptsPlanVectors(t *testing.T) {
	cat := hashOpsCatalog(t)
	for _, c := range []struct {
		q          string
		rows       int
		rowBytes   int // bytes of one result row's cells and null flags
		sharedCols bool
	}{
		{"SELECT k, f, s FROM fact WHERE v BETWEEN 100 AND 399", 1800, 8 + 8 + 16 + 3, false},
		{"SELECT k, k, f + 1 FROM fact WHERE v BETWEEN 100 AND 399", 1800, 3 * (8 + 1), true},
	} {
		stmt, err := Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		snap := cat.PinSnapshot()
		defer snap.Release()
		want, err := refRunAt(cat, stmt, snap)
		if err != nil {
			t.Fatal(err)
		}
		// Each column's kind, as the reference executor's cells carry it.
		kinds := make([]store.Kind, len(want.Columns))
		for _, r := range want.Rows {
			for j, v := range r {
				if v.K != store.KindNull {
					kinds[j] = v.K
				}
			}
		}
		for _, m := range diffMatrix() {
			res, err := m.engine(cat).RunAt(context.Background(), stmt, snap)
			if err != nil {
				t.Fatal(err)
			}
			if res.Batch.Rows != c.rows {
				t.Fatalf("%s [%s]: %d rows, want %d", c.q, m.name, res.Batch.Rows, c.rows)
			}
			if !sameRowMultisetCanon(store.RowsFromColBatch(res.Batch, res.Dict), want.Rows) {
				t.Fatalf("%s [%s]: columns differ from the reference executor's rows", c.q, m.name)
			}
			for j := range res.Batch.Cols {
				for i := 0; i < res.Batch.Rows; i++ {
					if v := res.Batch.Cols[j].Value(i); v.K != store.KindNull && v.K != kinds[j] {
						t.Fatalf("%s [%s]: cell (%d, %d) is %v of kind %v, want kind %v", c.q, m.name, i, j, v, v.K, kinds[j])
					}
				}
			}
			if c.sharedCols && &res.Batch.Cols[0].Int[0] == &res.Batch.Cols[1].Int[0] {
				t.Fatalf("%s [%s]: two result columns share one vector", c.q, m.name)
			}
		}
		eng := serialConfig().engine(cat)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := eng.RunAt(context.Background(), stmt, snap); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per, once := float64(after.TotalAlloc-before.TotalAlloc)/runs, float64(c.rows*c.rowBytes)
		t.Logf("%s: %.1f KiB a statement, one copy of the rows is %.1f KiB", c.q, per/1024, once/1024)
		if !c.sharedCols && per > 1.25*once+16<<10 {
			t.Fatalf("%s: %.1f KiB a statement for %.1f KiB of rows: the sink copied them again", c.q, per/1024, once/1024)
		}
	}
}

func TestSimpleSelect(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), "SELECT accession, family FROM proteins WHERE family = 'FAM2'")
	if len(res.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(res.Rows))
	}
	if res.Columns[0] != "accession" || res.Columns[1] != "family" {
		t.Fatalf("columns = %v", res.Columns)
	}
	for _, r := range res.Rows {
		if r[1].S != "FAM2" {
			t.Fatalf("wrong family %q", r[1].S)
		}
	}
}

func TestSelectStar(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), "SELECT * FROM ligands")
	if len(res.Rows) != 10 || len(res.Columns) != 2 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
}

func TestIndexScanChosen(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), "EXPLAIN SELECT * FROM proteins WHERE accession = 'P010'")
	if !strings.Contains(res.Plan, "IndexScan") {
		t.Fatalf("expected IndexScan in plan:\n%s", res.Plan)
	}
	naive := runQ(t, cat, NaiveOptions(), "EXPLAIN SELECT * FROM proteins WHERE accession = 'P010'")
	if strings.Contains(naive.Plan, "IndexScan") {
		t.Fatalf("naive engine used an index:\n%s", naive.Plan)
	}
}

func TestIndexRangeScanChosen(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), "EXPLAIN SELECT * FROM proteins WHERE length BETWEEN 110 AND 120")
	if !strings.Contains(res.Plan, "IndexRangeScan") {
		t.Fatalf("expected IndexRangeScan:\n%s", res.Plan)
	}
	// Results correct.
	r2 := runQ(t, cat, DefaultOptions(), "SELECT * FROM proteins WHERE length BETWEEN 110 AND 120")
	if len(r2.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(r2.Rows))
	}
}

func TestJoinQuery(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), `SELECT p.accession, a.affinity
		FROM proteins p JOIN activities a ON p.accession = a.protein_id
		WHERE p.family = 'FAM0' AND a.affinity >= 9`)
	for _, r := range res.Rows {
		if r[1].F < 9 {
			t.Fatalf("affinity filter leak: %v", r[1])
		}
	}
	// Cross-check with manual count.
	manual := runQ(t, cat, NaiveOptions(), `SELECT p.accession, a.affinity
		FROM proteins p JOIN activities a ON p.accession = a.protein_id
		WHERE p.family = 'FAM0' AND a.affinity >= 9`)
	if len(res.Rows) != len(manual.Rows) {
		t.Fatalf("optimized %d rows != naive %d rows", len(res.Rows), len(manual.Rows))
	}
}

func TestThreeWayJoin(t *testing.T) {
	cat := testCatalog(t)
	q := `SELECT p.accession, l.weight FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		JOIN ligands l ON a.ligand_id = l.ligand_id
		WHERE l.weight > 150 AND p.family = 'FAM1'`
	opt := runQ(t, cat, DefaultOptions(), q)
	naive := runQ(t, cat, NaiveOptions(), q)
	if len(opt.Rows) == 0 {
		t.Fatal("no rows returned")
	}
	if !sameRowMultiset(opt.Rows, naive.Rows) {
		t.Fatal("optimized and naive results differ")
	}
}

func TestAggregation(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(),
		"SELECT family, COUNT(*) AS n, AVG(length) AS avglen FROM proteins GROUP BY family ORDER BY family")
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Rows))
	}
	if res.Rows[0][0].S != "FAM0" || res.Rows[0][1].I != 15 {
		t.Fatalf("first group = %v", res.Rows[0])
	}
	// AVG(length) for FAM0: lengths 100,104,...,156 → avg 128.
	if res.Rows[0][2].F != 128 {
		t.Fatalf("avg = %v, want 128", res.Rows[0][2])
	}
}

func TestGlobalAggregate(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), "SELECT COUNT(*), MIN(length), MAX(length) FROM proteins")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0].I != 60 || r[1].I != 100 || r[2].I != 159 {
		t.Fatalf("aggregates = %v", r)
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), "SELECT COUNT(*) FROM proteins WHERE family = 'NOPE'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("COUNT over empty = %v", res.Rows)
	}
}

func TestAggregateSelectOrderPreserved(t *testing.T) {
	cat := testCatalog(t)
	// Aggregate listed before the group key.
	res := runQ(t, cat, DefaultOptions(),
		"SELECT COUNT(*) AS n, family FROM proteins GROUP BY family ORDER BY family LIMIT 1")
	if res.Columns[0] != "n" || res.Columns[1] != "family" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][0].K != store.KindInt || res.Rows[0][1].S != "FAM0" {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestOrderByAndLimit(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(),
		"SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].I != 159 || res.Rows[2][1].I != 157 {
		t.Fatalf("order wrong: %v", res.Rows)
	}
}

func TestWithinSubtreeQuery(t *testing.T) {
	cat := testCatalog(t)
	q := "SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, 'FAM0') AND is_leaf = TRUE"
	res := runQ(t, cat, DefaultOptions(), q)
	var names []string
	for _, r := range res.Rows {
		names = append(names, r[0].S)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "P000,P004" {
		t.Fatalf("subtree leaves = %v", names)
	}
	// Naive produces the same rows.
	naive := runQ(t, cat, NaiveOptions(), q)
	if len(naive.Rows) != len(res.Rows) {
		t.Fatalf("naive %d != optimized %d", len(naive.Rows), len(res.Rows))
	}
	// Rewrite enables the pre-index.
	plan := runQ(t, cat, DefaultOptions(), "EXPLAIN "+q)
	if !strings.Contains(plan.Plan, "IndexRangeScan") {
		t.Fatalf("subtree rewrite did not reach the index:\n%s", plan.Plan)
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), "EXPLAIN SELECT * FROM proteins")
	if len(res.Rows) != 0 {
		t.Fatalf("EXPLAIN returned rows")
	}
	if res.Plan == "" {
		t.Fatal("EXPLAIN produced no plan")
	}
}

func TestProjectionExpressions(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(),
		"SELECT accession, length * 2 AS dbl, length + 0.5 FROM proteins WHERE accession = 'P001'")
	r := res.Rows[0]
	if r[1].I != 202 {
		t.Fatalf("length*2 = %v", r[1])
	}
	if r[2].F != 101.5 {
		t.Fatalf("length+0.5 = %v", r[2])
	}
}

func TestLikeQuery(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(), "SELECT accession FROM proteins WHERE accession LIKE 'P00_'")
	if len(res.Rows) != 10 {
		t.Fatalf("LIKE matched %d rows, want 10", len(res.Rows))
	}
}

func TestQueryErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT * FROM nope",
		"SELECT nope FROM proteins",
		"SELECT p.nope FROM proteins p",
		"SELECT accession FROM proteins p JOIN proteins p ON p.accession = p.accession",
		"SELECT COUNT(*) FROM proteins WHERE COUNT(*) > 1",
		"SELECT accession FROM proteins GROUP BY family",
		"SELECT * FROM proteins GROUP BY family",
		"SELECT family, COUNT(*) FROM proteins GROUP BY COUNT(*)",
		"SELECT * FROM tree_nodes WHERE WITHIN_SUBTREE(pre, 'NOSUCHNODE')",
	}
	for _, src := range bad {
		if _, err := NewEngine(cat, DefaultOptions()).Query(context.Background(), src); err == nil {
			t.Errorf("Query(%q) accepted", src)
		}
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	cat := testCatalog(t)
	_, err := NewEngine(cat, DefaultOptions()).Query(context.Background(),
		"SELECT ligand_id FROM activities a JOIN ligands l ON a.ligand_id = l.ligand_id")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous column: %v", err)
	}
}

// sameRowMultiset compares two row slices ignoring order.
func sameRowMultiset(a, b []store.Row) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r store.Row) string {
		return string(store.AppendRow(nil, r))
	}
	counts := map[string]int{}
	for _, r := range a {
		counts[key(r)]++
	}
	for _, r := range b {
		counts[key(r)]--
		if counts[key(r)] < 0 {
			return false
		}
	}
	return true
}

// TestNaiveOptimizedEquivalence is the core correctness property: for
// a corpus of queries spanning every feature, the naive and fully
// optimized engines return identical multisets.
func TestNaiveOptimizedEquivalence(t *testing.T) {
	cat := testCatalog(t)
	queries := []string{
		"SELECT * FROM proteins",
		"SELECT accession FROM proteins WHERE family = 'FAM1'",
		"SELECT accession FROM proteins WHERE length > 130 AND family != 'FAM0'",
		"SELECT accession FROM proteins WHERE length BETWEEN 105 AND 140 AND family = 'FAM3'",
		"SELECT accession FROM proteins WHERE family = 'FAM1' OR family = 'FAM2'",
		"SELECT p.accession, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id",
		`SELECT p.accession, l.weight FROM proteins p
		 JOIN activities a ON p.accession = a.protein_id
		 JOIN ligands l ON a.ligand_id = l.ligand_id WHERE a.affinity > 7`,
		`SELECT p.family, COUNT(*) AS n, AVG(a.affinity) FROM proteins p
		 JOIN activities a ON p.accession = a.protein_id
		 GROUP BY p.family`,
		"SELECT family, MAX(length) FROM proteins WHERE length < 150 GROUP BY family",
		"SELECT accession FROM proteins ORDER BY length DESC LIMIT 7",
		"SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, 'FAM1')",
		"SELECT name FROM tree_nodes WHERE NOT WITHIN_SUBTREE(pre, 'FAM0') AND is_leaf = TRUE",
		"SELECT accession FROM proteins WHERE accession LIKE 'P01%'",
		"SELECT COUNT(*) FROM activities WHERE affinity >= 5 AND affinity <= 8",
	}
	for _, q := range queries {
		naive := runQ(t, cat, NaiveOptions(), q)
		opt := runQ(t, cat, DefaultOptions(), q)
		// ORDER BY queries must match exactly; others as multisets.
		if strings.Contains(q, "ORDER BY") {
			if len(naive.Rows) != len(opt.Rows) {
				t.Fatalf("%q: naive %d rows, optimized %d", q, len(naive.Rows), len(opt.Rows))
			}
			for i := range naive.Rows {
				if !sameRowMultiset([]store.Row{naive.Rows[i]}, []store.Row{opt.Rows[i]}) {
					t.Fatalf("%q: row %d differs", q, i)
				}
			}
			continue
		}
		if !sameRowMultiset(naive.Rows, opt.Rows) {
			t.Fatalf("%q: results differ (naive %d rows, optimized %d)", q, len(naive.Rows), len(opt.Rows))
		}
	}
}

func TestOptimizedScansFewerRows(t *testing.T) {
	cat := testCatalog(t)
	q := "SELECT * FROM proteins WHERE accession = 'P042'"
	naive := runQ(t, cat, NaiveOptions(), q)
	opt := runQ(t, cat, DefaultOptions(), q)
	if naive.Stats.RowsScanned == 0 {
		t.Fatal("naive did not scan")
	}
	if opt.Stats.RowsScanned != 0 || opt.Stats.RowsIndexed != 1 {
		t.Fatalf("optimized stats: %+v", opt.Stats)
	}
}

func TestJoinReorderStartsSmall(t *testing.T) {
	cat := testCatalog(t)
	// ligands (10 rows) is much smaller than activities (180); with a
	// selective predicate on proteins, the reordered plan should not
	// start from activities.
	q := `EXPLAIN SELECT p.accession FROM activities a
		JOIN proteins p ON p.accession = a.protein_id
		JOIN ligands l ON l.ligand_id = a.ligand_id
		WHERE p.accession = 'P001'`
	res := runQ(t, cat, DefaultOptions(), q)
	// The first scanned relation in the plan (deepest left) should be
	// proteins (1 row after the pushed filter).
	lines := strings.Split(res.Plan, "\n")
	var deepest string
	maxIndent := -1
	for _, l := range lines {
		indent := len(l) - len(strings.TrimLeft(l, " "))
		if strings.Contains(l, "Scan") && indent > maxIndent {
			maxIndent = indent
			deepest = l
		}
	}
	if !strings.Contains(deepest, "proteins") {
		t.Fatalf("join order did not start from filtered proteins:\n%s", res.Plan)
	}
}

func TestFormatResult(t *testing.T) {
	cat := testCatalog(t)
	stmt, err := Parse("SELECT accession FROM proteins LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(cat, DefaultOptions()).Run(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(res)
	if !strings.Contains(out, "accession") || !strings.Contains(out, "(2 row(s))") {
		t.Fatalf("formatted:\n%s", out)
	}
}
