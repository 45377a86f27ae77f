package query

import (
	"context"
	"testing"

	"drugtree/internal/store"
)

// tanimotoCatalog holds a small ligand table with known structures.
func tanimotoCatalog(t *testing.T) *DBCatalog {
	t.Helper()
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	lig, err := db.CreateTable("ligands", store.MustSchema(
		store.Column{Name: "ligand_id", Kind: store.KindString},
		store.Column{Name: "smiles", Kind: store.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	rows := [][2]string{
		{"ETH", "CCO"},            // ethanol
		{"PRO", "CCCO"},           // propanol
		{"BUT", "CCCCO"},          // butanol
		{"BNZ", "c1ccccc1"},       // benzene
		{"NAP", "c1ccc2ccccc2c1"}, // naphthalene
	}
	for _, r := range rows {
		db.Insert(lig.Name(), store.Row{store.StringValue(r[0]), store.StringValue(r[1])})
	}
	return NewDBCatalog(db, nil)
}

func TestParseTanimoto(t *testing.T) {
	stmt := mustParseQ(t, "SELECT TANIMOTO(smiles, 'CCO') FROM ligands")
	te, ok := stmt.Items[0].Expr.(*TanimotoExpr)
	if !ok || te.SMILES != "CCO" || te.Column.Name != "smiles" {
		t.Fatalf("tanimoto expr = %v", stmt.Items[0].Expr)
	}
	bad := []string{
		"SELECT TANIMOTO(1, 'CCO') FROM t",
		"SELECT TANIMOTO(smiles, x) FROM t",
		"SELECT TANIMOTO(smiles) FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestTanimotoRanking(t *testing.T) {
	cat := tanimotoCatalog(t)
	res := runQ(t, cat, DefaultOptions(),
		"SELECT ligand_id, TANIMOTO(smiles, 'CCO') AS sim FROM ligands ORDER BY sim DESC")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "ETH" || res.Rows[0][1].F != 1 {
		t.Fatalf("self-similarity not first: %v", res.Rows[0])
	}
	// Alcohols outrank aromatics against an alcohol query.
	rank := map[string]int{}
	for i, r := range res.Rows {
		rank[r[0].S] = i
	}
	if rank["PRO"] > rank["BNZ"] || rank["BUT"] > rank["NAP"] {
		t.Fatalf("chemical ranking implausible: %v", rank)
	}
}

func TestTanimotoThresholdFilter(t *testing.T) {
	cat := tanimotoCatalog(t)
	res := runQ(t, cat, DefaultOptions(),
		"SELECT ligand_id FROM ligands WHERE TANIMOTO(smiles, 'c1ccccc1') >= 0.99")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "BNZ" {
		t.Fatalf("threshold filter = %v", res.Rows)
	}
}

func TestTanimotoInvalidReferenceRejected(t *testing.T) {
	cat := tanimotoCatalog(t)
	if _, err := NewEngine(cat, DefaultOptions()).Query(context.Background(),
		"SELECT TANIMOTO(smiles, 'not smiles !!!') FROM ligands"); err == nil {
		t.Fatal("invalid reference SMILES accepted")
	}
}

func TestTanimotoUnparseableRowScoresNull(t *testing.T) {
	cat := tanimotoCatalog(t)
	db := cat.DB
	lig, _ := db.Table("ligands")
	db.Insert(lig.Name(), store.Row{store.StringValue("BAD"), store.StringValue("garbage(((")})
	// NULL similarity rows are excluded by the threshold comparison.
	res := runQ(t, cat, DefaultOptions(),
		"SELECT ligand_id FROM ligands WHERE TANIMOTO(smiles, 'CCO') >= 0")
	for _, r := range res.Rows {
		if r[0].S == "BAD" {
			t.Fatal("unparseable SMILES passed the threshold")
		}
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
}

func TestTanimotoNaiveOptimizedAgree(t *testing.T) {
	cat := tanimotoCatalog(t)
	q := "SELECT ligand_id FROM ligands WHERE TANIMOTO(smiles, 'CCCO') > 0.3"
	naive := runQ(t, cat, NaiveOptions(), q)
	opt := runQ(t, cat, DefaultOptions(), q)
	if !sameRowMultiset(naive.Rows, opt.Rows) {
		t.Fatalf("engines disagree: %d vs %d rows", len(naive.Rows), len(opt.Rows))
	}
}
