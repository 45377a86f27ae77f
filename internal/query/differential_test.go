package query

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// Differential harness: every query must give the reference executor's
// answer (refexec_test.go: the unoptimised logical plan interpreted
// over rows with nested loops) on both engine configurations, naive and
// default. Row counts must match and result multisets must match; for
// ORDER BY queries the sort key sequence must match (ties may
// legitimately permute whole rows).

// engineConfig is an engine the tests build: a name and its optimizer
// options.
type engineConfig struct {
	name string
	opts Options
}

// engine builds the configured engine over cat.
func (c engineConfig) engine(cat Catalog) *Engine { return NewEngine(cat, c.opts) }

func defaultConfig() engineConfig { return engineConfig{"default", DefaultOptions()} }

func naiveConfig() engineConfig { return engineConfig{"naive", NaiveOptions()} }

// canonKey encodes a row for multiset comparison with floats rounded
// to 10 significant digits. Access paths order rows differently from
// the reference's nested loops, and SUM/AVG add in row order, so
// bit-exact float comparison against the reference is unsound;
// everything else compares exactly.
func canonKey(r store.Row) string {
	var b []byte
	for _, v := range r {
		if v.K == store.KindFloat {
			b = append(b, fmt.Sprintf("|%.9e", v.F)...)
			continue
		}
		b = append(b, '|')
		b = store.AppendValue(b, v)
	}
	return string(b)
}

// sameRowMultisetCanon compares two row slices ignoring order, with
// canonKey equality.
func sameRowMultisetCanon(a, b []store.Row) bool {
	if len(a) != len(b) {
		return false
	}
	counts := map[string]int{}
	for _, r := range a {
		counts[canonKey(r)]++
	}
	for _, r := range b {
		k := canonKey(r)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// assertSameResult applies the harness comparison rules to one
// configuration's rows against the reference's.
func assertSameResult(t *testing.T, q string, ordered bool, want, got *Result) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("query %q: row counts diverge: reference %d, got %d", q, len(want.Rows), len(got.Rows))
	}
	if ordered {
		for j := range want.Rows {
			a, b := want.Rows[j][0], got.Rows[j][0]
			if a.K != b.K || a.String() != b.String() {
				t.Fatalf("query %q: sort key %d differs: %v vs %v", q, j, a, b)
			}
		}
		return
	}
	if !sameRowMultisetCanon(want.Rows, got.Rows) {
		t.Fatalf("query %q: result multisets differ (%d rows each)", q, len(want.Rows))
	}
}

// runDifferential checks q on both configurations against the
// reference executor, and returns the default configuration's plan.
func runDifferential(t *testing.T, cat Catalog, q string, ordered bool) string {
	t.Helper()
	want, err := refQuery(cat, q)
	if err != nil {
		t.Fatalf("query %q: reference: %v", q, err)
	}
	var got *Result
	for _, c := range []engineConfig{naiveConfig(), defaultConfig()} {
		got, err = c.engine(cat).Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %q: %s: %v", q, c.name, err)
		}
		assertSameResult(t, q+" ["+c.name+"]", ordered, want, got)
	}
	return got.Plan
}

// differentialCorpus is a fixed corpus over testCatalog covering every
// operator: scans, hash joins, nested-loop joins, aggregation (plain, grouped, DISTINCT),
// subqueries, tree operators, sorts, and top-k. It also seeds
// FuzzParse.
var differentialCorpus = []struct {
	q       string
	ordered bool
}{
	{"SELECT * FROM proteins", false},
	{"SELECT accession FROM proteins WHERE family = 'FAM1'", false},
	{"SELECT accession FROM proteins WHERE length > 130 AND family != 'FAM0'", false},
	{"SELECT accession FROM proteins WHERE family = 'FAM1' OR length BETWEEN 110 AND 120", false},
	{"SELECT p.accession, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id", false},
	{`SELECT p.accession, l.weight FROM proteins p
	  JOIN activities a ON p.accession = a.protein_id
	  JOIN ligands l ON a.ligand_id = l.ligand_id WHERE a.affinity > 7`, false},
	{"SELECT COUNT(*) FROM activities", false},
	{"SELECT COUNT(*), SUM(affinity), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities", false},
	{"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family", false},
	{"SELECT protein_id, COUNT(DISTINCT ligand_id) FROM activities GROUP BY protein_id", false},
	{"SELECT COUNT(DISTINCT family) FROM proteins", false},
	{`SELECT p.family, COUNT(*) AS n, AVG(a.affinity) FROM proteins p
	  JOIN activities a ON p.accession = a.protein_id GROUP BY p.family`, false},
	{"SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 7", true},
	{"SELECT accession FROM proteins ORDER BY accession", true},
	{"SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, 'FAM0') AND is_leaf = TRUE", false},
	{"SELECT name FROM tree_nodes WHERE ANCESTOR_OF(pre, 'P004')", false},
	{"SELECT accession FROM proteins WHERE accession IN (SELECT protein_id FROM activities WHERE affinity > 8)", false},
	{"SELECT accession FROM proteins WHERE length > (SELECT AVG(length) FROM proteins)", false},
	{`SELECT a.protein_id, l.ligand_id FROM activities a
	  JOIN ligands l ON a.affinity < l.weight WHERE l.weight < 110`, false},
	{"SELECT COUNT(*) FROM proteins WHERE family = 'NOSUCH'", false},
	// wide_a.k and wide_b.k hold 2^53+1 and 2^53: distinct integers whose
	// hashes (taken over the float64 widening) collide, so a hash hit
	// is not key equality. The second join is the same predicate as a
	// nested loop.
	{"SELECT x.k, y.k FROM wide_a x JOIN wide_b y ON x.k = y.k", false},
	{"SELECT x.k, y.k FROM wide_a x JOIN wide_b y ON x.k >= y.k AND x.k <= y.k", false},
	{"SELECT COUNT(DISTINCT k) FROM wide_b", false},
	// specials' NaN, ±Inf, −0 and NULL cells compare as store.Compare
	// orders them on every path: x = 5.0 probes x's B+-tree while y = 5.0
	// scans, and i * 1e308 * 10.0 - i * 1e308 * 10.0 is Inf − Inf, a NaN,
	// at every non-NULL row.
	{"SELECT i FROM specials WHERE x = 5.0", false},
	{"SELECT i FROM specials WHERE y = 5.0", false},
	{"SELECT i FROM specials WHERE x < 1.0", false},
	{"SELECT i FROM specials WHERE y < 1.0", false},
	{"SELECT i FROM specials WHERE y >= -0.0 AND y <= 0.0", false},
	{"SELECT i FROM specials WHERE x != y", false},
	{"SELECT i, x = y, x < y, 1.0 > y FROM specials", false},
	{"SELECT i FROM specials WHERE x = 5.0 AND y * 2.0 > 1.0", false},
	{"SELECT i FROM specials WHERE i * 1e308 * 10.0 - i * 1e308 * 10.0 = 1.0", false},
	{"SELECT x, i FROM specials ORDER BY x LIMIT 4", true},
}

// batchless matches an EXPLAIN ANALYZE annotation of an operator that
// emitted rows without emitting a batch.
var batchless = regexp.MustCompile(`\[rows=[1-9][0-9]* batches=0\b`)

// TestDifferentialCorpus runs the fixed corpus through the harness, and
// checks that every operator that emits rows reports the batches they
// flowed in.
func TestDifferentialCorpus(t *testing.T) {
	cat := testCatalog(t)
	for _, c := range differentialCorpus {
		runDifferential(t, cat, c.q, c.ordered)
		res := mustQuery(t, defaultConfig().engine(cat), "EXPLAIN ANALYZE "+c.q)
		if line := batchless.FindString(res.Plan); line != "" {
			t.Fatalf("query %q: rows without batches (%s):\n%s", c.q, line, res.Plan)
		}
	}
}

// TestDifferentialFuzz pushes the generated corpus through both
// executors across several seeds.
func TestDifferentialFuzz(t *testing.T) {
	cat := testCatalog(t)
	for _, seed := range []int64{1, 42, 2026} {
		g := &queryGen{rng: rand.New(rand.NewSource(seed))}
		trials := 120
		if testing.Short() {
			trials = 30
		}
		for i := 0; i < trials; i++ {
			q, ordered := g.generate()
			runDifferential(t, cat, q, ordered)
		}
	}
}

// datagenCatalog builds a catalog from a generated dataset large
// enough (> 2 batches of activities) that operators stream several
// batches instead of falling back to small-input paths.
func datagenCatalog(t testing.TB, seed int64) *DBCatalog {
	t.Helper()
	return datagenCatalogOf(t, func(cfg *datagen.Config) { cfg.Seed = seed })
}

// datagenCatalogOf is datagenCatalog with the generator's configuration
// adjusted by tweak.
func datagenCatalogOf(t testing.TB, tweak func(*datagen.Config)) *DBCatalog {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NumFamilies = 6
	cfg.ProteinsPerFamily = 30
	cfg.SeqLen = 40 // sequences only feed the length column here
	cfg.NumLigands = 50
	cfg.ActivityDensity = 0.5
	tweak(&cfg)
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	ann, err := db.CreateTable("annotations", store.MustSchema(
		store.Column{Name: "protein_id", Kind: store.KindString},
		store.Column{Name: "organism", Kind: store.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ds.Annotations {
		db.Insert(ann.Name(), store.Row{store.StringValue(a.ProteinID), store.StringValue(a.Organism)})
	}
	ann.CreateIndex("protein_id", store.IndexHash)
	for _, p := range ds.Proteins {
		db.Insert(prot.Name(), store.Row{
			store.StringValue(p.ID),
			store.StringValue(p.Family),
			store.IntValue(int64(100 + len(p.Residues))),
		})
	}
	for _, a := range ds.Activities {
		db.Insert(act.Name(), store.Row{
			store.StringValue(a.ProteinID),
			store.StringValue(a.LigandID),
			store.FloatValue(a.Affinity),
		})
	}
	for _, l := range ds.Ligands {
		db.Insert(lig.Name(), store.Row{store.StringValue(l.ID), store.FloatValue(l.Weight)})
	}
	prot.CreateIndex("accession", store.IndexHash)
	prot.CreateIndex("family", store.IndexHash)
	prot.CreateIndex("length", store.IndexBTree)
	act.CreateIndex("protein_id", store.IndexHash)
	act.CreateIndex("affinity", store.IndexBTree)
	lig.CreateIndex("ligand_id", store.IndexHash)

	tree := ds.TrueTree
	if err := tree.Index(); err != nil {
		t.Fatal(err)
	}
	// The generator names leaves only; clades get their preorder number
	// so WITHIN_SUBTREE can address them (the root is clade_0).
	tree.NameClades()
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
	rankByTree(t, db, tree)
	return NewDBCatalog(db, tree)
}

// rankByTree publishes tree's ranking on db, as core does, so that a
// coded protein-name column is read by rank.
func rankByTree(t testing.TB, db *store.DB, tree *phylo.Tree) {
	t.Helper()
	IndexByTree(db, tree)
}

// datagenLiterals is the string literal pool matched to the datagen
// catalog's ID universe so generated predicates are selective rather
// than uniformly empty.
func datagenLiterals() []string {
	lits := []string{"'zzz'"}
	for f := 0; f < 3; f++ {
		lits = append(lits, fmt.Sprintf("'FAM%02d'", f))
	}
	for p := 0; p < 4; p++ {
		lits = append(lits, fmt.Sprintf("'DT%05d'", p*17))
	}
	for l := 0; l < 3; l++ {
		lits = append(lits, fmt.Sprintf("'LIG%04d'", l*7))
	}
	return lits
}

// TestDifferentialDatagen runs generated queries over the
// datagen-backed catalog, where table sizes force multi-batch scans,
// chunked hash-join builds, and partial aggregation merges.
func TestDifferentialDatagen(t *testing.T) {
	if testing.Short() {
		t.Skip("datagen differential corpus is slow")
	}
	cat := datagenCatalog(t, 7)
	// Sanity: the activities table must span multiple batches or this
	// test silently stops covering the chunked paths.
	tab, err := cat.Table("activities")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() < 2*vecBatchSize {
		t.Fatalf("activities has %d rows; need >= %d for multi-batch coverage", tab.Len(), 2*vecBatchSize)
	}
	tree := cat.Tree()
	g := &queryGen{rng: rand.New(rand.NewSource(11)), strLits: datagenLiterals(), nodes: []string{
		"clade_0", cladeOfSize(t, tree, 30, 30), cladeOfSize(t, tree, 8, 16), cladeOfSize(t, tree, 2, 4), "DT00017",
	}}
	for i := 0; i < 60; i++ {
		q, ordered := g.generate()
		runDifferential(t, cat, q, ordered)
	}
	// Aggregation over the big table exercises the partial-merge path.
	aggCorpus := []string{
		"SELECT protein_id, COUNT(*), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities GROUP BY protein_id",
		"SELECT ligand_id, COUNT(DISTINCT protein_id) FROM activities GROUP BY ligand_id",
		"SELECT COUNT(*), COUNT(DISTINCT ligand_id) FROM activities",
		`SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p
		 JOIN activities a ON p.accession = a.protein_id GROUP BY p.family`,
	}
	for _, q := range aggCorpus {
		runDifferential(t, cat, q, false)
	}
	// Folds that read storage (foldscan.go): each shape must fill more
	// than two batches unless the selection is empty
	// (TestFoldFromStorageMatchesGather checks that a fold reads the scan).
	for _, q := range foldShapes {
		runDifferential(t, cat, q, false)
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := defaultConfig().engine(cat).Run(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		if empty := strings.Contains(q, "1000"); (scanRowsOut(res, "activities") > 2*vecBatchSize) == empty {
			t.Fatalf("query %q folded %d rows straight from storage", q, scanRowsOut(res, "activities"))
		}
	}
}

// foldShapes are aggregates and group-joins over scans that a fold reads
// straight from storage: an index range aggregate, a sequential scan
// with a vectorized residual under GROUP BY, COUNT(DISTINCT) and string
// MIN/MAX, a group-join over a range probe and over a sequential one,
// and empty selections grouped and global.
var foldShapes = []string{
	"SELECT ligand_id, COUNT(*), SUM(affinity), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities WHERE affinity >= 1 GROUP BY ligand_id",
	"SELECT protein_id, COUNT(*), AVG(affinity) FROM activities WHERE affinity * 2.0 > 3.0 GROUP BY protein_id",
	"SELECT protein_id, COUNT(DISTINCT ligand_id), MIN(ligand_id), MAX(ligand_id) FROM activities WHERE affinity >= 1 GROUP BY protein_id",
	"SELECT COUNT(DISTINCT ligand_id), MIN(protein_id), MAX(protein_id), SUM(affinity) FROM activities WHERE affinity >= 1",
	`SELECT p.family, COUNT(*), AVG(a.affinity), MIN(a.ligand_id) FROM proteins p
	 JOIN activities a ON p.accession = a.protein_id WHERE a.affinity >= 1 GROUP BY p.family`,
	`SELECT p.family, COUNT(*), SUM(a.affinity) FROM proteins p
	 JOIN activities a ON p.accession = a.protein_id WHERE a.affinity * 2.0 > 3.0 GROUP BY p.family`,
	"SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE affinity > 1000 GROUP BY ligand_id",
	"SELECT COUNT(*), AVG(affinity), MIN(ligand_id) FROM activities WHERE affinity * 2.0 > 1000",
}

// cladeOfSize names the first clade (in preorder) of the datagen tree
// with lo..hi leaves.
func cladeOfSize(t testing.TB, tree *phylo.Tree, lo, hi int) string {
	t.Helper()
	for id := range phylo.NodeID(tree.Len()) {
		if n := tree.LeafCount(id); !tree.Node(id).IsLeaf() && n >= lo && n <= hi {
			return tree.Node(id).Name
		}
	}
	t.Fatalf("tree has no clade of %d..%d leaves", lo, hi)
	return ""
}
