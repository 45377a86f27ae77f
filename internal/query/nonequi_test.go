package query

import (
	"context"
	"strings"
	"testing"

	"drugtree/internal/store"
)

func TestNonEquiJoinUsesNestedLoop(t *testing.T) {
	cat := testCatalog(t)
	q := `SELECT p.accession, l.ligand_id FROM proteins p
		JOIN ligands l ON p.length < l.weight
		WHERE p.accession = 'P001'`
	plan := runQ(t, cat, DefaultOptions(), "EXPLAIN "+q)
	if !strings.Contains(plan.Plan, "NestedLoopJoin") {
		t.Fatalf("expected NestedLoopJoin:\n%s", plan.Plan)
	}
	res := runQ(t, cat, DefaultOptions(), q)
	// P001 has length 101; ligand weights are 100,110,...,190 → 9
	// weights strictly above 101.
	if len(res.Rows) != 9 {
		t.Fatalf("non-equi join rows = %d, want 9", len(res.Rows))
	}
	naive := runQ(t, cat, NaiveOptions(), q)
	if !sameRowMultiset(res.Rows, naive.Rows) {
		t.Fatal("non-equi join engines disagree")
	}
}

func TestMixedEquiAndResidualJoin(t *testing.T) {
	cat := testCatalog(t)
	// Equality extracted as the hash key, inequality kept as residual.
	q := `SELECT p.accession, a.affinity FROM proteins p
		JOIN activities a ON p.accession = a.protein_id AND a.affinity > 6
		WHERE p.family = 'FAM0'`
	plan := runQ(t, cat, DefaultOptions(), "EXPLAIN "+q)
	if !strings.Contains(plan.Plan, "HashJoin") {
		t.Fatalf("expected HashJoin with residual:\n%s", plan.Plan)
	}
	res := runQ(t, cat, DefaultOptions(), q)
	for _, r := range res.Rows {
		if r[1].F <= 6 {
			t.Fatalf("residual leak: %v", r)
		}
	}
	naive := runQ(t, cat, NaiveOptions(), q)
	if !sameRowMultiset(res.Rows, naive.Rows) {
		t.Fatal("residual join engines disagree")
	}
}

func TestUnaryMinus(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(),
		"SELECT accession, -length, -(length * 2) FROM proteins WHERE accession = 'P002'")
	r := res.Rows[0]
	if r[1].I != -102 || r[2].I != -204 {
		t.Fatalf("negation = %v", r)
	}
	// Negation of floats.
	res2 := runQ(t, cat, DefaultOptions(),
		"SELECT -weight FROM ligands WHERE ligand_id = 'L03'")
	if res2.Rows[0][0].F != -130 {
		t.Fatalf("float negation = %v", res2.Rows[0])
	}
	// Negating a string errors at evaluation.
	if _, err := NewEngine(cat, DefaultOptions()).Query(context.Background(),
		"SELECT -accession FROM proteins LIMIT 1"); err == nil {
		t.Fatal("string negation accepted")
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	cat := testCatalog(t)
	res := runQ(t, cat, DefaultOptions(),
		"SELECT length / 0, length / 0.0 FROM proteins LIMIT 1")
	if !res.Rows[0][0].IsNull() || !res.Rows[0][1].IsNull() {
		t.Fatalf("division by zero = %v", res.Rows[0])
	}
}

func TestArithmeticOnStringsRejectedAtRuntime(t *testing.T) {
	cat := testCatalog(t)
	if _, err := NewEngine(cat, DefaultOptions()).Query(context.Background(),
		"SELECT accession + 1 FROM proteins LIMIT 1"); err == nil {
		t.Fatal("string arithmetic accepted")
	}
}

func TestCrossJoinViaTrueCondition(t *testing.T) {
	// A join whose condition folds to TRUE degenerates to a cross
	// product through the nested-loop operator.
	db, _ := store.Open("")
	t.Cleanup(func() { db.Close() })
	a, _ := db.CreateTable("a", store.MustSchema(store.Column{Name: "x", Kind: store.KindInt}))
	bt, _ := db.CreateTable("b", store.MustSchema(store.Column{Name: "y", Kind: store.KindInt}))
	for i := 0; i < 3; i++ {
		db.Insert(a.Name(), store.Row{store.IntValue(int64(i))})
		db.Insert(bt.Name(), store.Row{store.IntValue(int64(10 + i))})
	}
	cat := NewDBCatalog(db, nil)
	res := runQ(t, cat, DefaultOptions(), "SELECT p.x, q.y FROM a p JOIN b q ON 1 = 1")
	if len(res.Rows) != 9 {
		t.Fatalf("cross product = %d rows, want 9", len(res.Rows))
	}
}
