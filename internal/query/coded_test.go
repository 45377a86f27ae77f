package query

import (
	"context"
	"math/rand"
	"testing"

	"drugtree/internal/store"
)

// Coded versus plain: a hash-indexed STRING column reaches the executor
// as dictionary codes, which equalities, joins and groupings compare as
// integers and everything that orders or reads a name decodes. Every
// statement must answer as it does over a twin catalog holding the
// same rows with no hash index on a STRING column, whose names stay
// strings from storage to reply. The twin's access paths differ (no
// index lookups on names), so rows are compared as multisets under
// canonKey, or by sort key where the statement orders them; an error
// must be the twin's error.

// codedCorpus covers what codes change: ORDER BY a name, <, >, LIKE,
// MIN and MAX on a coded column, literals the dictionary lacks under =,
// <> and IN, NULL names, joins and IN subqueries between a coded and a
// plain string column in both directions, coded columns compared with
// each other, a scalar subquery yielding a name, the tree functions
// over names, and the errors a name raises where a number is wanted.
var codedCorpus = []struct {
	q       string
	ordered bool
}{
	{"SELECT accession, family FROM proteins ORDER BY family, accession", true},
	{"SELECT family, accession FROM proteins ORDER BY family DESC, accession LIMIT 9", true},
	{"SELECT ligand_id, protein_id FROM activities ORDER BY ligand_id, protein_id LIMIT 12", true},
	{"SELECT accession FROM proteins WHERE family < 'FAM2'", false},
	{"SELECT accession FROM proteins WHERE family >= 'FAM2' AND accession > 'P030'", false},
	{"SELECT protein_id, ligand_id FROM activities WHERE ligand_id <= 'L03'", false},
	{"SELECT accession FROM proteins WHERE accession LIKE 'P01%'", false},
	{"SELECT protein_id FROM activities WHERE ligand_id LIKE '%5'", false},
	{"SELECT family, MIN(accession), MAX(accession) FROM proteins GROUP BY family", false},
	{"SELECT MIN(ligand_id), MAX(protein_id), COUNT(protein_id), COUNT(*) FROM activities", false},
	{"SELECT ligand_id, COUNT(*), MIN(protein_id) FROM activities GROUP BY ligand_id", false},
	{"SELECT COUNT(DISTINCT ligand_id), COUNT(DISTINCT protein_id) FROM activities", false},
	{"SELECT accession FROM proteins WHERE family = 'NOSUCH'", false},
	{"SELECT accession FROM proteins WHERE family <> 'NOSUCH'", false},
	{"SELECT accession FROM proteins WHERE family IN ('FAM1', 'NOSUCH')", false},
	{"SELECT accession FROM proteins WHERE accession = 'NOSUCH' OR accession IN ('P003', 'NOSUCH2')", false},
	{"SELECT COUNT(*) FROM proteins WHERE accession <> 'NOSUCH'", false},
	{"SELECT protein_id FROM activities WHERE ligand_id NOT IN ('NOSUCH', 'L02')", false},
	{"SELECT protein_id FROM activities WHERE 'NOSUCH' = ligand_id OR protein_id = 'P004'", false},
	{"SELECT protein_id, ligand_id FROM activities WHERE ligand_id <> 'L01'", false},
	{"SELECT family, COUNT(*) FROM proteins GROUP BY family", false},
	{"SELECT p.family, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id", false},
	{"SELECT accession FROM proteins WHERE accession <> family", false},
	{"SELECT accession FROM proteins WHERE family <> accession OR family = accession", false},
	{"SELECT accession FROM proteins WHERE family < accession", false},
	{"SELECT a.protein_id, l.weight FROM activities a JOIN ligands l ON a.affinity < l.weight WHERE a.ligand_id = l.ligand_id", false},
	{"SELECT a.protein_id, l.ligand_id FROM activities a JOIN ligands l ON a.affinity < l.weight WHERE a.ligand_id <> l.ligand_id AND l.weight < 130", false},
	{"SELECT t.name, a.ligand_id FROM tree_nodes t JOIN activities a ON t.name = a.protein_id", false},
	{"SELECT t.name, a.ligand_id FROM tree_nodes t JOIN activities a ON t.name = a.protein_id WHERE a.affinity > 9", false},
	{"SELECT s.alias, p.family FROM aliases s JOIN proteins p ON s.protein = p.accession", false},
	{"SELECT s.alias, a.affinity FROM aliases s JOIN activities a ON a.protein_id = s.protein WHERE a.affinity >= 8", false},
	{"SELECT s.alias, COUNT(*), MAX(a.ligand_id) FROM aliases s JOIN activities a ON s.protein = a.protein_id GROUP BY s.alias", false},
	{"SELECT p.family, COUNT(*) FROM aliases s JOIN proteins p ON s.protein = p.accession GROUP BY p.family", false},
	{"SELECT name FROM tree_nodes WHERE name IN (SELECT protein_id FROM activities WHERE affinity > 8)", false},
	{"SELECT accession FROM proteins WHERE accession IN (SELECT protein FROM aliases)", false},
	{"SELECT accession FROM proteins WHERE family = (SELECT family FROM proteins WHERE accession = 'P005')", false},
	{"SELECT accession FROM proteins WHERE WITHIN_SUBTREE(accession, 'FAM0')", false},
	{"SELECT protein_id, COUNT(*) FROM activities WHERE WITHIN_SUBTREE(protein_id, 'FAM1') GROUP BY protein_id", false},
	{"SELECT -family FROM proteins", false},
	{"SELECT accession FROM proteins WHERE NOT family", false},
	{"SELECT family + 1 FROM proteins", false},
	{"SELECT SUM(family), AVG(accession) FROM proteins", false},
}

// codedTables are the tables of testCatalog and addNames.
var codedTables = []string{"proteins", "activities", "ligands", "tree_nodes", "wide_a", "wide_b", "specials", "errs", "aliases"}

// addNames gives testCatalog's DB NULL names in coded columns, a coded
// name no protein holds, and aliases: a table of plain string columns
// naming proteins, one by a name the dictionary lacks, one by NULL.
func addNames(t *testing.T, db *store.DB) {
	t.Helper()
	s, f, null := store.StringValue, store.FloatValue, store.NullValue()
	aliases, err := db.CreateTable("aliases", store.MustSchema(
		store.Column{Name: "alias", Kind: store.KindString},
		store.Column{Name: "protein", Kind: store.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	err = db.CommitDeltas([]store.TableDelta{
		{Table: "activities", Inserts: []store.Row{{null, s("L01"), f(5)}, {s("P001"), null, f(9.5)}, {s("P999"), s("L99"), f(7.5)}}},
		{Table: "proteins", Inserts: []store.Row{{s("P900"), null, store.IntValue(120)}}},
		{Table: aliases.Name(), Inserts: []store.Row{{s("a1"), s("P001")}, {s("a2"), s("P002")}, {s("a3"), s("NOPE")}, {s("a4"), null}, {s("a5"), s("P001")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// plainTwin copies the named tables of cat into a fresh DB with every
// index but the hash indexes over STRING columns, so no column is
// coded; the tree and its ranking come along.
func plainTwin(t testing.TB, cat *DBCatalog, tables []string) *DBCatalog {
	t.Helper()
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, name := range tables {
		src, err := cat.DB.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := db.CreateTable(name, src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		delta := store.TableDelta{Table: name}
		src.Scan(func(_ int64, r store.Row) bool {
			delta.Inserts = append(delta.Inserts, append(store.Row(nil), r...))
			return true
		})
		if err := db.CommitDeltas([]store.TableDelta{delta}); err != nil {
			t.Fatal(err)
		}
		for _, ix := range src.Indexes() {
			col := src.Schema().Columns[src.Schema().ColumnIndex(ix.Column)]
			if ix.Type == store.IndexHash && col.Kind == store.KindString {
				continue
			}
			if err := dst.CreateIndex(ix.Column, ix.Type); err != nil {
				t.Fatal(err)
			}
		}
	}
	rankByTree(t, db, cat.Tree())
	return NewDBCatalog(db, cat.Tree())
}

// assertCodedMatchesPlain runs q on every configuration over the coded
// catalog and its plain twin and compares the answers.
func assertCodedMatchesPlain(t *testing.T, coded, plain Catalog, q string, ordered bool) {
	t.Helper()
	for _, c := range append([]engineConfig{naiveSerialConfig()}, diffMatrix()...) {
		want, werr := c.engine(plain).Query(context.Background(), q)
		got, gerr := c.engine(coded).Query(context.Background(), q)
		switch {
		case werr != nil || gerr != nil:
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				t.Fatalf("query %q [%s]: coded error %v, plain error %v", q, c.name, gerr, werr)
			}
		default:
			assertSameResult(t, q+" [coded vs plain, "+c.name+"]", ordered, want, got)
		}
	}
}

// TestCodedMatchesPlain runs the differential corpus and the coded
// corpus over testCatalog (with addNames' rows) and the fold shapes and
// generated queries over the datagen catalog, each against its plain
// twin.
func TestCodedMatchesPlain(t *testing.T) {
	cat := testCatalog(t)
	addNames(t, cat.DB)
	plain := plainTwin(t, cat, codedTables)
	if tab, _ := cat.DB.Table("activities"); tab.Len() == 0 {
		t.Fatal("no activities")
	}
	for _, c := range differentialCorpus {
		assertCodedMatchesPlain(t, cat, plain, c.q, c.ordered)
	}
	errors := 0
	for _, c := range codedCorpus {
		assertCodedMatchesPlain(t, cat, plain, c.q, c.ordered)
		if _, err := serialConfig().engine(cat).Query(context.Background(), c.q); err != nil {
			errors++
		}
	}
	if errors != 3 {
		t.Fatalf("%d coded-corpus statements failed, want the 3 that read a name as a number or a boolean", errors)
	}

	dg := datagenCatalog(t, 7)
	dgPlain := plainTwin(t, dg, []string{"proteins", "activities", "ligands", "annotations", "tree_nodes"})
	for _, q := range foldShapes {
		assertCodedMatchesPlain(t, dg, dgPlain, q, false)
	}
	g := &queryGen{rng: rand.New(rand.NewSource(57)), strLits: datagenLiterals(), nodes: []string{
		"clade_0", cladeOfSize(t, dg.Tree(), 8, 16), "DT00017",
	}}
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for range trials {
		q, ordered := g.generate()
		assertCodedMatchesPlain(t, dg, dgPlain, q, ordered)
	}
}
