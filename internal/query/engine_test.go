package query

import (
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"drugtree/internal/store"
)

// Tests of the one-engine contract: every operator exchanges batches,
// sorting is stable over its input order, and an expression that fails
// at evaluation time fails the same way wherever it sits.

// TestEveryOperatorEmitsBatches: the operators that used to hand rows
// across a bridge — sort, top-k, nested-loop join, the aggregate's
// output and OverlayRead — and the group-join, one plan line for two
// operators, report at least one batch under EXPLAIN ANALYZE.
func TestEveryOperatorEmitsBatches(t *testing.T) {
	cat := testCatalog(t)
	cat.OverlayAggs = fixedOverlay{}
	for _, c := range []struct{ op, q string }{
		{"Sort", "SELECT accession FROM proteins ORDER BY accession"},
		{"TopK", "SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 7"},
		{"NestedLoopJoin", "SELECT a.protein_id, l.ligand_id FROM activities a JOIN ligands l ON a.affinity < l.weight WHERE l.weight < 110"},
		{"Aggregate", "SELECT family, COUNT(*) FROM proteins GROUP BY family"},
		{"GroupJoin", "SELECT p.family, COUNT(*) FROM proteins p JOIN activities a ON p.accession = a.protein_id GROUP BY p.family"},
		{"OverlayRead", "SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, 'FAM0')"},
		{"IndexScan", "SELECT * FROM proteins WHERE accession = 'P007'"},
	} {
		line := regexp.MustCompile(`(?m)^\s*` + c.op + `\b.*\[rows=(\d+) batches=(\d+)`)
		for _, m := range diffMatrix() {
			res := mustQuery(t, m.engine(cat), "EXPLAIN ANALYZE "+c.q)
			got := line.FindStringSubmatch(res.Plan)
			if got == nil || got[1] == "0" || got[2] == "0" {
				t.Errorf("%s [%s]: operator emitted no batch:\n%s", c.op, m.name, res.Plan)
			}
		}
	}
}

// TestPlainExplainExecutesNothing: EXPLAIN without ANALYZE lowers every
// operator but reads no table and runs no join — scans gather and joins
// drain on their first call — serial and parallel alike, and EXPLAIN
// ANALYZE renders the same plan lines with its counters appended.
func TestPlainExplainExecutesNothing(t *testing.T) {
	cat := hashOpsCatalog(t)
	annotation := regexp.MustCompile(` \[rows=[^\]]*\]`)
	for _, q := range []string{
		"SELECT l.v, r.w FROM l JOIN r ON l.k = r.k",
		"SELECT l.v, r.w FROM l JOIN r ON l.v < r.w",
		"SELECT l.v, r.w, big.s FROM big JOIN l ON big.k = l.k JOIN r ON l.k = r.k WHERE big.s = 'y'",
		"SELECT d.name, f.v FROM dim d JOIN fact f ON d.k = f.k WHERE f.v > 3",
		"SELECT d.g, COUNT(*), SUM(f.v) FROM dim d JOIN fact f ON d.k = f.k GROUP BY d.g",
		"SELECT k, COUNT(*) FROM fact WHERE v BETWEEN 10 AND 20 GROUP BY k",
	} {
		for _, para := range []int{1, diffWorkers} {
			res := mustQuery(t, parallelConfig(para).engine(cat), "EXPLAIN "+q)
			if s := res.Stats; s.RowsScanned != 0 || s.RowsIndexed != 0 || s.RowsJoined != 0 {
				t.Fatalf("%s (parallelism %d): plain EXPLAIN scanned %d, indexed %d and joined %d rows", q, para, s.RowsScanned, s.RowsIndexed, s.RowsJoined)
			}
			analyzed := mustQuery(t, parallelConfig(para).engine(cat), "EXPLAIN ANALYZE "+q)
			if got := annotation.ReplaceAllString(analyzed.Plan, ""); got != res.Plan {
				t.Fatalf("%s (parallelism %d): EXPLAIN ANALYZE lines differ from EXPLAIN's:\n%s\nvs\n%s", q, para, analyzed.Plan, res.Plan)
			}
			if analyzed.Stats.RowsScanned+analyzed.Stats.RowsIndexed == 0 {
				t.Fatalf("%s (parallelism %d): EXPLAIN ANALYZE read nothing", q, para)
			}
		}
	}
}

// TestSortTiesKeepScanOrder: rows with equal sort keys come out in the
// order the input delivered them — over a sequential scan (no
// predicate here can take an index path) whole rows, not just keys,
// equal the reference's stable sort of the scan order — for the full
// sort and the top-k alike, and a parallel run orders exactly as a
// serial one.
func TestSortTiesKeepScanOrder(t *testing.T) {
	small, big := testCatalog(t), datagenCatalog(t, 7)
	for _, c := range []struct {
		cat Catalog
		q   string
	}{
		{small, "SELECT family, accession FROM proteins ORDER BY family"},
		{small, "SELECT family, accession FROM proteins ORDER BY family DESC LIMIT 20"},
		{small, "SELECT ligand_id, protein_id FROM activities WHERE ligand_id != 'L03' ORDER BY ligand_id"},
		// Multi-batch input whose residual filter runs on the worker pool.
		{big, "SELECT ligand_id, protein_id, affinity FROM activities WHERE ligand_id != 'LIG0003' ORDER BY ligand_id"},
		{big, "SELECT ligand_id, protein_id, affinity FROM activities WHERE ligand_id != 'LIG0003' ORDER BY ligand_id LIMIT 1500"},
	} {
		want, err := refQuery(c.cat, c.q)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.q, err)
		}
		for _, m := range diffMatrix() {
			got := mustQuery(t, m.engine(c.cat), c.q)
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s [%s]: tie order differs from the stable sort of the scan order", c.q, m.name)
			}
		}
	}
}

// TestEvalErrorsAgree: an expression that fails at evaluation time
// (negating a string, NOT over an integer) returns the same error from
// the reference executor and from every engine configuration, whether
// it sits in a filter, a projection, a group key, an aggregate
// argument, a sort key, a join residual, a keyed probe's residual or an
// ordered index walk's: the error of the first row that fails, in row
// order, the left operand before the right within a row.
func TestEvalErrorsAgree(t *testing.T) {
	cat := testCatalog(t)
	for _, q := range []string{
		"SELECT accession FROM proteins WHERE -accession = 'x'",
		"SELECT accession FROM proteins WHERE NOT length",
		"SELECT -accession FROM proteins",
		"SELECT accession, NOT length FROM proteins WHERE family = 'FAM1'",
		"SELECT -family, COUNT(*) FROM proteins GROUP BY -family",
		"SELECT family, MAX(-accession) FROM proteins GROUP BY family",
		"SELECT accession FROM proteins ORDER BY -accession",
		"SELECT accession FROM proteins ORDER BY -accession LIMIT 3",
		"SELECT p.accession FROM proteins p JOIN activities a ON p.accession = a.protein_id AND -p.family = a.ligand_id",
		"SELECT p.accession FROM proteins p JOIN ligands l ON NOT p.length AND p.length < l.weight",
		// On a keyed probe's residual, a group-join's group key and its
		// argument.
		"SELECT p.accession FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE p.accession = 'P001' AND NOT a.affinity",
		"SELECT -p.family, COUNT(*) FROM proteins p JOIN activities a ON p.accession = a.protein_id GROUP BY -p.family",
		"SELECT p.family, MAX(-a.ligand_id) FROM proteins p JOIN activities a ON p.accession = a.protein_id GROUP BY p.family",
	} {
		assertEvalErrorAgrees(t, cat, q)
	}
	// Over errs, evaluating a column at a time fails at row 1, negating
	// "f"; row order fails at row 0, whose NOT length runs because its
	// -family is NULL. Every engine must report row 0's error, and each
	// statement must keep the shape it covers under the default plan.
	for _, c := range []struct{ q, plan string }{
		{"SELECT pos FROM errs WHERE -family = 'x' OR NOT length", "SeqScan errs"},
		{"SELECT pos FROM errs WHERE -family = (NOT length)", "SeqScan errs"},
		{"SELECT -family + (NOT length) FROM errs", "Project"},
		{"SELECT -family = 'x' OR NOT length FROM errs", "Project"},
		{"SELECT pos, -family, NOT length FROM errs", "Project"},
		{"SELECT e.pos FROM wide_a w JOIN errs e ON w.k = e.k AND (-e.family = w.k OR NOT e.length)", "residual: "},
		{"SELECT e.pos FROM wide_a w JOIN errs e ON w.k = e.k WHERE -e.family = 'x' OR NOT e.length", "IndexUnionScan errs (k ∈ join keys) cols=(k, pos) filter: "},
		{"SELECT pos FROM errs WHERE pos >= 0 AND (-family = 'x' OR NOT length) ORDER BY pos LIMIT 2", "order=ASC limit=2 cols=(pos) filter: "},
	} {
		want := assertEvalErrorAgrees(t, cat, c.q)
		if !strings.Contains(want.Error(), "NOT expects BOOL, got INT") {
			t.Errorf("%s: reference error = %v, want row 0's", c.q, want)
		}
		if plan := mustQuery(t, serialConfig().engine(cat), "EXPLAIN "+c.q).Plan; !strings.Contains(plan, c.plan) {
			t.Errorf("%s: plan lacks %q:\n%s", c.q, c.plan, plan)
		}
	}
	// Over far, row 0 passes and only row 3 000 — in the third of five
	// batches — fails. A LIMIT that row 0 satisfies must not hide the
	// failure: a sequential scan's residual (and, without pushdown, a
	// filter over the scan) runs over the whole table before anything
	// above it reads a row, as the reference executor's does. The scan
	// sits under the limit behind a projection that only passes its
	// column on, and behind one that computes. Row 4 500 fails too, at
	// NOT b, where row 3 000 never gets: the first failing row's error
	// must win.
	far, err := cat.DB.CreateTable("far", store.MustSchema(
		store.Column{Name: "pos", Kind: store.KindInt},
		store.Column{Name: "name", Kind: store.KindString},
		store.Column{Name: "x", Kind: store.KindInt},
		store.Column{Name: "b", Kind: store.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	var rows []store.Row
	for pos := 0; pos < 5000; pos++ {
		name, b := store.NullValue(), store.NullValue()
		if pos == 3000 {
			name = store.StringValue("n")
		}
		if pos == 4500 {
			b = store.IntValue(1)
		}
		rows = append(rows, store.Row{store.IntValue(int64(pos)), name, store.IntValue(int64(pos)), b})
	}
	if err := cat.DB.CommitDeltas([]store.TableDelta{{Table: far.Name(), Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ q, plan string }{
		{"SELECT pos FROM far WHERE -name = 'x' OR x >= 0 LIMIT 1", "Limit 1\n  Project pos\n    SeqScan far cols=(pos) filter: "},
		{"SELECT pos + 1 FROM far WHERE -name = 'x' OR x >= 0 LIMIT 1", "Limit 1\n  Project (pos + 1)\n    SeqScan far cols=(pos) filter: "},
		{"SELECT pos FROM far WHERE -name = 'x' OR NOT b OR x >= 0 LIMIT 1", "Limit 1\n  Project pos\n    SeqScan far cols=(pos) filter: "},
	} {
		want := assertEvalErrorAgrees(t, cat, c.q)
		if !strings.Contains(want.Error(), "cannot negate STRING") {
			t.Errorf("%s: reference error = %v, want row 3 000's", c.q, want)
		}
		if plan := mustQuery(t, serialConfig().engine(cat), "EXPLAIN "+c.q).Plan; !strings.Contains(plan, c.plan) {
			t.Errorf("%s: plan lacks %q:\n%s", c.q, c.plan, plan)
		}
	}
}

// assertEvalErrorAgrees checks that q fails with an evaluation error on
// the reference executor and with the same error on every engine
// configuration, and returns the reference's.
func assertEvalErrorAgrees(t *testing.T, cat Catalog, q string) error {
	t.Helper()
	_, want := refQuery(cat, q)
	if want == nil || !strings.Contains(want.Error(), "query: ") {
		t.Fatalf("%s: reference error = %v, want an evaluation error", q, want)
	}
	configs := append(diffMatrix(), naiveSerialConfig())
	for _, m := range configs {
		_, err := m.engine(cat).Query(context.Background(), q)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s [%s]: err = %v, reference says %v", q, m.name, err, want)
		}
	}
	return want
}

// FuzzParse: the parser never panics, and a statement that parses
// renders (String) to text that parses back to an equal AST — equal up
// to one literal form: a FLOAT of integral value renders without a
// fraction ("8"), as plan text and column names always have, and so
// re-parses as an INT.
func FuzzParse(f *testing.F) {
	for _, c := range differentialCorpus {
		f.Add(c.q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", src, text, err)
		}
		if !sameAST(reflect.ValueOf(stmt), reflect.ValueOf(again)) {
			t.Fatalf("%q: AST changes across String():\n%s\n%s", src, text, again)
		}
	})
}

// sameAST is reflect.DeepEqual over ASTs, except that two literals are
// equal when they render alike.
func sameAST(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if lit, ok := a.Interface().(Literal); ok {
		return lit.Val.String() == b.Interface().(Literal).Val.String()
	}
	switch a.Kind() {
	case reflect.Ptr, reflect.Interface:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameAST(a.Elem(), b.Elem()))
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameAST(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameAST(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}
