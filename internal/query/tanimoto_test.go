package query

import (
	"context"
	"strings"
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

// clique8 is an 8-carbon clique: 8 atoms with a bond between every
// two, whose 69 280 paths of up to 7 atoms exceed the fingerprint's
// path budget.
const clique8 = "C123456C789%10%11C1%12%13%14%15C27%16%17%18C38%12%19%20C49%13%16%21C5%10%14%17%19C6%11%15%18%20%21"

// TestTanimotoDenseReferenceRefused: a reference SMILES that parses but
// is past the fingerprint's path budget fails the statement, naming the
// budget.
func TestTanimotoDenseReferenceRefused(t *testing.T) {
	cat := tanimotoCatalog(t)
	_, err := NewEngine(cat, DefaultOptions()).Query(context.Background(),
		"SELECT TANIMOTO(smiles, '"+clique8+"') FROM ligands")
	if err == nil || !strings.Contains(err.Error(), "TANIMOTO reference") || !strings.Contains(err.Error(), "paths") {
		t.Fatalf("dense reference: err = %v, want a path-budget refusal", err)
	}
}

// TestTanimotoUnparseableRowScoresNull: a stored SMILES that does not
// parse, or parses past the path budget, scores NULL.
func TestTanimotoUnparseableRowScoresNull(t *testing.T) {
	cat := tanimotoCatalog(t)
	db := cat.DB
	lig, _ := db.Table("ligands")
	db.Insert(lig.Name(), store.Row{store.StringValue("BAD"), store.StringValue("garbage(((")})
	db.Insert(lig.Name(), store.Row{store.StringValue("DENSE"), store.StringValue(clique8)})
	// NULL similarity rows are excluded by the threshold comparison.
	res := runQ(t, cat, DefaultOptions(),
		"SELECT ligand_id FROM ligands WHERE TANIMOTO(smiles, 'CCO') >= 0")
	for _, r := range res.Rows {
		if r[0].S == "BAD" || r[0].S == "DENSE" {
			t.Fatalf("SMILES %s passed the threshold", r[0].S)
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
