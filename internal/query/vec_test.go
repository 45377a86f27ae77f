package query

import (
	"context"
	"strings"
	"testing"

	"drugtree/internal/store"
)

// Tests specific to the vectorized executor and the interfaces the
// refactor touched: EXPLAIN ANALYZE annotations and result-row
// aliasing. Engine-equivalence itself lives in the differential
// harness (differential_test.go).

func TestParseExplainAnalyze(t *testing.T) {
	stmt, err := Parse("EXPLAIN ANALYZE SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Explain || !stmt.Analyze {
		t.Fatalf("Explain=%v Analyze=%v, want both true", stmt.Explain, stmt.Analyze)
	}
	if got := stmt.String(); !strings.HasPrefix(got, "EXPLAIN ANALYZE SELECT") {
		t.Fatalf("String() = %q", got)
	}
	plain, err := Parse("EXPLAIN SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Analyze {
		t.Fatal("plain EXPLAIN parsed as ANALYZE")
	}
}

func TestExplainAnalyzeAnnotations(t *testing.T) {
	cat := testCatalog(t)
	const q = "SELECT accession FROM proteins WHERE length > 130"
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"naive", NaiveOptions()},
	} {
		res := runQ(t, cat, tc.opts, "EXPLAIN ANALYZE "+q)
		if len(res.Rows) != 0 {
			t.Fatalf("%s: EXPLAIN ANALYZE returned rows", tc.name)
		}
		if !strings.Contains(res.Plan, "[rows=") || !strings.Contains(res.Plan, "batches=") {
			t.Fatalf("%s: plan lacks runtime annotations:\n%s", tc.name, res.Plan)
		}
		if !strings.Contains(res.Plan, "sel=") {
			t.Fatalf("%s: filtering plan lacks selectivity:\n%s", tc.name, res.Plan)
		}
		if res.Stats.RowsReturned == 0 {
			t.Fatalf("%s: query did not execute under ANALYZE", tc.name)
		}
		if len(res.Stats.Ops) != len(strings.Split(res.Plan, "\n")) {
			t.Fatalf("%s: Ops (%d) not 1:1 with plan lines:\n%s",
				tc.name, len(res.Stats.Ops), res.Plan)
		}
		// Plain EXPLAIN and plain execution keep the unannotated plan.
		if p := runQ(t, cat, tc.opts, "EXPLAIN "+q); strings.Contains(p.Plan, "[rows=") {
			t.Fatalf("%s: plain EXPLAIN got annotations:\n%s", tc.name, p.Plan)
		}
		if p := runQ(t, cat, tc.opts, q); strings.Contains(p.Plan, "[rows=") {
			t.Fatalf("%s: plain query got annotations:\n%s", tc.name, p.Plan)
		}
	}
	// The vectorized engine must actually report batch flow.
	res := runQ(t, cat, DefaultOptions(), "EXPLAIN ANALYZE SELECT * FROM proteins")
	if strings.Contains(res.Plan, "batches=0") {
		t.Fatalf("vec scan reported zero batches:\n%s", res.Plan)
	}
}

// scribble overwrites every cell of every returned row in place.
func scribble(res *Result) {
	for _, r := range res.Rows {
		for i := range r {
			r[i] = store.StringValue("CORRUPTED")
		}
	}
}

// TestResultRowMutationIsolation is the aliasing regression test: a
// caller mutating the rows a query returned must not be able to
// corrupt table storage or a later identical query's result, under
// either engine, serial or parallel, across every scan and join
// shape that materializes output rows.
func TestResultRowMutationIsolation(t *testing.T) {
	queries := []string{
		"SELECT * FROM proteins",                                  // seqscan, no projection
		"SELECT * FROM proteins WHERE family = 'FAM1'",            // index scan
		"SELECT * FROM proteins WHERE length BETWEEN 110 AND 150", // index range scan
		`SELECT p.accession, a.ligand_id FROM proteins p
		 JOIN activities a ON p.accession = a.protein_id`, // hash join probe output
		"SELECT accession FROM proteins ORDER BY length DESC LIMIT 5", // topk
	}
	for _, tc := range append(diffMatrix(), naiveSerialConfig()) {
		cat := testCatalog(t)
		eng := tc.engine(cat)
		for _, q := range queries {
			before, err := eng.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s %q: %v", tc.name, q, err)
			}
			scribble(before)
			after, err := eng.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s %q: %v", tc.name, q, err)
			}
			for _, r := range after.Rows {
				for _, v := range r {
					if v.K == store.KindString && v.S == "CORRUPTED" {
						t.Fatalf("%s %q: mutation of a returned row reached storage", tc.name, q)
					}
				}
			}
			if len(after.Rows) != len(before.Rows) {
				t.Fatalf("%s %q: row count changed after mutation: %d vs %d",
					tc.name, q, len(before.Rows), len(after.Rows))
			}
		}
	}
}
