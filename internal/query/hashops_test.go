package query

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/store"
)

// Tests of the three hashing operators (join build, GROUP BY, DISTINCT)
// over the one hashTab: a differential corpus aimed at what a flat
// table, a build-side choice and an output projection can get wrong,
// the shared identity selection, and the allocation guard.

// hashOpsCatalog builds tables shaped for the hashing operators:
//
//	l(k INT, k2 STRING, v INT) — 120 rows, keys 0..9 repeated (NULL every
//	  11th), k2 of "", "a", "b" (NULL every 7th)
//	r(k INT, k2 STRING, w FLOAT) — 90 rows, keys 5..14 repeated, same k2s
//	fk(k FLOAT, w INT) — FLOAT keys 0, 0.5, 1, … that equal l's INT keys
//	big(k INT, s STRING) — 2 600 rows (three batches): k 0..49 repeated,
//	  s "x" on one row and "y" on the rest
//	e(k INT, v INT) — empty
//	dim(k INT, g STRING, name STRING) — 12 rows: k 0, 7, 7, NULL, 2^53+1
//	  and seven more under 300; g "p", "q", NULL; name d0..d11
//	fact(k INT hash-indexed, f FLOAT and v INT B+-tree-indexed, s STRING) —
//	  3 000 rows (three batches): k and f i mod 300 (NULL every 37th),
//	  v i mod 500, s s0..s6 (NULL every 5th); the last row holds INT 2^53
//	  in k and FLOAT 2^53 in f, which equals dim's INT 2^53+1 (store.Equal
//	  widens) while k does not
func hashOpsCatalog(t testing.TB) *DBCatalog {
	t.Helper()
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, cols ...store.Column) *store.Table {
		tab, err := db.CreateTable(name, store.MustSchema(cols...))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	nullEvery := func(i, n int, v store.Value) store.Value {
		if i%n == n-1 {
			return store.NullValue()
		}
		return v
	}
	k2s := []string{"", "a", "b"}
	l := mk("l", store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "k2", Kind: store.KindString}, store.Column{Name: "v", Kind: store.KindInt})
	for i := 0; i < 120; i++ {
		db.Insert(l.Name(), store.Row{nullEvery(i, 11, store.IntValue(int64(i%10))), nullEvery(i, 7, store.StringValue(k2s[i%3])), store.IntValue(int64(i))})
	}
	r := mk("r", store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "k2", Kind: store.KindString}, store.Column{Name: "w", Kind: store.KindFloat})
	for i := 0; i < 90; i++ {
		db.Insert(r.Name(), store.Row{nullEvery(i, 13, store.IntValue(int64(5+i%10))), nullEvery(i, 5, store.StringValue(k2s[(i/2)%3])), store.FloatValue(float64(i) / 4)})
	}
	fk := mk("fk", store.Column{Name: "k", Kind: store.KindFloat}, store.Column{Name: "w", Kind: store.KindInt})
	for i := 0; i < 24; i++ {
		db.Insert(fk.Name(), store.Row{store.FloatValue(float64(i) / 2), store.IntValue(int64(i))})
	}
	big := mk("big", store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "s", Kind: store.KindString})
	for i := 0; i < 2600; i++ {
		s := "y"
		if i == 1300 {
			s = "x"
		}
		db.Insert(big.Name(), store.Row{store.IntValue(int64(i % 50)), store.StringValue(s)})
	}
	mk("e", store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "v", Kind: store.KindInt})
	dim := mk("dim", store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "g", Kind: store.KindString}, store.Column{Name: "name", Kind: store.KindString})
	gs := []store.Value{store.StringValue("p"), store.StringValue("q"), store.NullValue()}
	for i, k := range []store.Value{store.IntValue(0), store.IntValue(7), store.IntValue(7), store.NullValue(), store.IntValue(1<<53 + 1),
		store.IntValue(11), store.IntValue(42), store.IntValue(99), store.IntValue(150), store.IntValue(201), store.IntValue(250), store.IntValue(299)} {
		db.Insert(dim.Name(), store.Row{k, gs[i%3], store.StringValue(fmt.Sprintf("d%d", i))})
	}
	fact := mk("fact", store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "f", Kind: store.KindFloat},
		store.Column{Name: "v", Kind: store.KindInt}, store.Column{Name: "s", Kind: store.KindString})
	for i := 0; i < 2999; i++ {
		db.Insert(fact.Name(), store.Row{nullEvery(i, 37, store.IntValue(int64(i%300))), nullEvery(i, 37, store.FloatValue(float64(i%300))),
			store.IntValue(int64(i % 500)), nullEvery(i, 5, store.StringValue(fmt.Sprintf("s%d", i%7)))})
	}
	db.Insert(fact.Name(), store.Row{store.IntValue(1 << 53), store.FloatValue(1 << 53), store.IntValue(7), store.StringValue("wide")})
	fact.CreateIndex("k", store.IndexHash)
	fact.CreateIndex("f", store.IndexBTree)
	fact.CreateIndex("v", store.IndexBTree)
	return NewDBCatalog(db, nil)
}

// hashOpsCorpus lists the statements with, where it matters, a fragment
// the optimised plan must contain.
var hashOpsCorpus = []struct {
	q       string
	ordered bool
	plan    string
}{
	// Duplicates on both sides: 12 × 9 pairs a shared key.
	{q: "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k"},
	{q: "SELECT r.w, l.v FROM r JOIN l ON l.k = r.k"},
	// Join keys not in the SELECT list are pruned from the join's
	// output; selected, they are kept.
	{q: "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k WHERE l.v < 60", plan: "cols=(l.v, r.w)"},
	{q: "SELECT l.k, r.k, r.w FROM l JOIN r ON l.k = r.k", plan: "HashJoin (1 key(s), build=right)\n"},
	{q: "SELECT * FROM l JOIN r ON l.k = r.k AND l.k2 = r.k2"},
	// NULL keys never join, in either column of a two-key join; the
	// residual reads columns nobody selects.
	{q: "SELECT l.v FROM l JOIN r ON l.k = r.k AND l.k2 = r.k2 AND l.v > r.w", plan: "HashJoin (2 key(s), build=right) cols=(l.v) residual: (l.v > r.w)"},
	{q: "SELECT l.v, r.w FROM l JOIN r ON l.k2 = r.k2 AND l.v + 1 > r.w"},
	{q: "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k AND l.v > r.w", plan: "HashJoin (1 key(s), build=right) cols=() residual"},
	// INT keys against FLOAT keys: 3 joins 3.0, nothing joins 2.5.
	{q: "SELECT l.v, fk.w FROM l JOIN fk ON l.k = fk.k", plan: "build=right"},
	{q: "SELECT l.v, fk.w FROM fk JOIN l ON l.k = fk.k", plan: "build=left"},
	// Empty build side, empty probe side, both.
	{q: "SELECT l.v, e.v FROM l JOIN e ON l.k = e.k", plan: "build=right"},
	{q: "SELECT l.v, e.v FROM e JOIN l ON l.k = e.k", plan: "build=left"},
	{q: "SELECT big.k FROM big JOIN e ON big.k = e.k WHERE e.v > 0"},
	{q: "SELECT a.v FROM e a JOIN e b ON a.k = b.k"},
	// Estimated smaller, actually larger: three guessed selectivities
	// shrink big's 2 600 rows to an estimated 41 against l's 120.
	{q: "SELECT l.v, big.s FROM l JOIN big ON l.k = big.k WHERE big.s LIKE '%' AND big.s LIKE '_' AND big.s LIKE '%%'", plan: "build=right"},
	// Estimated larger, actually smaller: s has two values, so s = 'x'
	// is estimated at half of big; it is one row.
	{q: "SELECT l.v, big.s FROM big JOIN l ON l.k = big.k WHERE big.s = 'x'", plan: "build=right"},
	// A three-way chain over the multi-batch table, a residual on top.
	{q: "SELECT l.v, r.w, big.s FROM big JOIN l ON big.k = l.k JOIN r ON l.k = r.k AND l.k2 = r.k2 WHERE big.s = 'y' AND l.v < 40"},
	// Aggregation: DISTINCT per group, extremes over strings, NULL
	// groups, NULL-only arguments, multi-batch partial merges.
	{q: "SELECT k, COUNT(DISTINCT k2), COUNT(k2), COUNT(*) FROM l GROUP BY k"},
	{q: "SELECT k2, MIN(k2), MAX(k2), MIN(v), MAX(v), SUM(v) FROM l GROUP BY k2"},
	{q: "SELECT k, k2, COUNT(*), AVG(v) FROM l GROUP BY k, k2"},
	{q: "SELECT k, COUNT(DISTINCT s), MIN(s), MAX(s), COUNT(*) FROM big GROUP BY k"},
	{q: "SELECT s, COUNT(DISTINCT k), SUM(k), AVG(k) FROM big GROUP BY s"},
	{q: "SELECT COUNT(DISTINCT k), COUNT(DISTINCT s), MIN(s), MAX(k) FROM big"},
	{q: "SELECT l.k2, COUNT(DISTINCT r.w), MAX(r.k2) FROM l JOIN r ON l.k = r.k GROUP BY l.k2"},
	// A group key of runtime kind: arithmetic over a scalar subquery is
	// evaluated row by row into a generic column.
	{q: "SELECT k + (SELECT MIN(k) FROM r), COUNT(*), MIN(k) FROM big GROUP BY k + (SELECT MIN(k) FROM r)"},
	{q: "SELECT k2, MAX(v + (SELECT MIN(k) FROM r)) FROM l GROUP BY k2"},
	// Global aggregates over empty input: one row, COUNT 0, the rest NULL.
	{q: "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), COUNT(DISTINCT v) FROM e"},
	{q: "SELECT COUNT(*), MIN(l.v) FROM l JOIN e ON l.k = e.k", plan: "GroupJoin COUNT(*), MIN(l.v) (1 key(s), build=right)"},
	{q: "SELECT k, COUNT(*) FROM e GROUP BY k"},
	{q: "SELECT COUNT(*), MAX(s) FROM big WHERE k < 0"},
	// IN (subquery) over the same table: NULLs on both sides, widening.
	{q: "SELECT v FROM l WHERE k IN (SELECT k FROM r)"},
	{q: "SELECT w FROM fk WHERE k IN (SELECT k FROM l WHERE v > 3)"},
	{q: "SELECT k, COUNT(*) FROM big WHERE k IN (SELECT k FROM r) GROUP BY k ORDER BY k", ordered: true},
	// Keyed probes: the build side's distinct keys drive the probe
	// table's index. NULL and duplicate build keys (dim's NULL and two
	// 7s), a hash-indexed and a B+-tree-indexed INT probe key, INT build
	// keys against a FLOAT B+-tree key (2^53+1 reaches FLOAT 2^53 and
	// not INT 2^53), an empty build side, and a probe conjunct evaluated
	// row by row (arithmetic over a scalar subquery).
	{q: "SELECT d.name, f.v, f.s FROM dim d JOIN fact f ON d.k = f.k", plan: "HashJoin (1 key(s), build=left, probe=keys) cols=(d.name, f.v, f.s)\n    SeqScan dim cols=(k, name)\n    IndexUnionScan fact (k ∈ join keys) cols=(k, v, s)"},
	{q: "SELECT d.name, f.k, f.f FROM dim d JOIN fact f ON d.k = f.f", plan: "IndexUnionScan fact (f ∈ join keys)"},
	{q: "SELECT d.name, f.k FROM fact f JOIN dim d ON f.v = d.k WHERE f.s > 's3'", plan: "HashJoin (1 key(s), build=right, probe=keys) cols=(f.k, d.name)\n    IndexUnionScan fact (v ∈ join keys) cols=(k, v) filter: (f.s > \"s3\")"},
	{q: "SELECT d.name, f.v FROM dim d JOIN fact f ON d.k = f.k WHERE d.name = 'none'", plan: "probe=keys"},
	{q: "SELECT d.name, f.v FROM dim d JOIN fact f ON d.k = f.k WHERE f.v + (SELECT MIN(k) FROM dim) > 250", plan: "IndexUnionScan fact (k ∈ join keys) cols=(k, v) filter: ((f.v + (SELECT MIN(k) FROM dim)) > 250)"},
	{q: "SELECT d.name, f.s FROM dim d JOIN fact f ON d.k = f.k WHERE f.v < 100 LIMIT 9", plan: "probe=keys"},
	// Group-joins: an aggregate over a residual-free hash join whose
	// group keys read the build side and arguments the probe side folds
	// each match in place. NULL groups (r.k2, dim.g), COUNT over NULLs,
	// string extremes, DISTINCT over a probe row several build rows of
	// different groups match, HAVING, no GROUP BY over an empty join, a
	// multi-batch probe side, and a keyed probe
	// underneath.
	{q: "SELECT r.k2, COUNT(*), COUNT(l.k2), SUM(l.v), AVG(l.v), MIN(l.k2), MAX(l.k2), COUNT(DISTINCT l.v) FROM l JOIN r ON l.k = r.k GROUP BY r.k2", plan: "GroupJoin r.k2, COUNT(*), COUNT(l.k2), SUM(l.v), AVG(l.v), MIN(l.k2), MAX(l.k2), COUNT(DISTINCT l.v) (1 key(s), build=right)\n  SeqScan l\n  SeqScan r cols=(k, k2)"},
	{q: "SELECT r.k2, r.w, COUNT(DISTINCT l.k2), SUM(l.v) FROM l JOIN r ON l.k = r.k GROUP BY r.k2, r.w HAVING COUNT(*) > 5", plan: "GroupJoin"},
	{q: "SELECT COUNT(*), COUNT(l.v), SUM(l.v), AVG(l.v), MIN(l.k2), COUNT(DISTINCT l.v) FROM l JOIN e ON l.k = e.k", plan: "GroupJoin"},
	{q: "SELECT l.k2, COUNT(*), COUNT(DISTINCT big.s), MIN(big.s), MAX(big.s) FROM big JOIN l ON big.k = l.k GROUP BY l.k2", plan: "GroupJoin l.k2, COUNT(*), COUNT(DISTINCT big.s), MIN(big.s), MAX(big.s) (1 key(s), build=right)"},
	{q: "SELECT d.g, COUNT(*), SUM(f.v), MIN(f.s), COUNT(DISTINCT f.v), COUNT(f.s) FROM dim d JOIN fact f ON d.k = f.k GROUP BY d.g", plan: "GroupJoin d.g, COUNT(*), SUM(f.v), MIN(f.s), COUNT(DISTINCT f.v), COUNT(f.s) (1 key(s), build=left, probe=keys)\n  SeqScan dim cols=(k, g)\n  IndexUnionScan fact (k ∈ join keys) cols=(k, v, s)"},
	{q: "SELECT d.name, MAX(f.f), AVG(f.f) FROM dim d JOIN fact f ON d.k = f.f WHERE f.v > 10 GROUP BY d.name ORDER BY d.name", ordered: true, plan: "GroupJoin d.name, MAX(f.f), AVG(f.f) (1 key(s), build=left, probe=keys)"},
	// Declined: a group key on the probe side, an argument on the build
	// side, a residual — each stays an Aggregate over a HashJoin.
	{q: "SELECT l.k2, COUNT(*) FROM l JOIN r ON l.k = r.k GROUP BY l.k2", plan: "Aggregate l.k2, COUNT(*)\n  HashJoin"},
	{q: "SELECT r.k2, SUM(r.w) FROM l JOIN r ON l.k = r.k GROUP BY r.k2", plan: "Aggregate r.k2, SUM(r.w)\n  HashJoin"},
	{q: "SELECT r.k2, COUNT(*) FROM l JOIN r ON l.k = r.k AND l.v > r.w GROUP BY r.k2", plan: "Aggregate r.k2, COUNT(*)\n  HashJoin"},
}

func TestDifferentialHashOperators(t *testing.T) {
	cat := hashOpsCatalog(t)
	for _, c := range hashOpsCorpus {
		plan := runDifferential(t, cat, c.q, c.ordered)
		if !strings.Contains(plan, c.plan) {
			t.Fatalf("query %q: plan lacks %q:\n%s", c.q, c.plan, plan)
		}
	}
}

// TestJoinLimitOrderIsStable: LIMIT without ORDER BY above a join cuts
// wherever the join's output order puts it, so that order — probe rows
// in arrival order, each with its matches in build order — must be one
// order: repeated runs return the same rows in the same sequence.
func TestJoinLimitOrderIsStable(t *testing.T) {
	cat := hashOpsCatalog(t)
	for _, q := range []string{
		"SELECT l.v, r.w FROM l JOIN r ON l.k = r.k LIMIT 37",
		"SELECT big.k, l.v FROM big JOIN l ON big.k = l.k LIMIT 1500",
		"SELECT big.k, l.v FROM l JOIN big ON big.k = l.k WHERE l.v > big.k LIMIT 1100",
		"SELECT a.k, b.k FROM l a JOIN r b ON a.v < b.w LIMIT 50",
	} {
		want := mustQuery(t, defaultConfig().engine(cat), q)
		ref, err := refQuery(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != len(ref.Rows) || len(want.Rows) == 0 {
			t.Fatalf("query %q: %d rows, reference %d", q, len(want.Rows), len(ref.Rows))
		}
		for run := 0; run < 3; run++ {
			got := mustQuery(t, defaultConfig().engine(cat), q)
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("query %q: run %d returned %d rows, the first %d", q, run, len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				if canonKey(got.Rows[i]) != canonKey(want.Rows[i]) {
					t.Fatalf("query %q: run %d row %d is %v, the first run's %v", q, run, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// TestExplainAnalyzeHashJoin: a hash join's annotation carries both
// input sizes and a selectivity. The probe streams one batch at a time
// whatever the core count, so a LIMIT above the join stops its probe
// side after the batch that fills it: the annotations run at
// GOMAXPROCS 4 read as they would at 1.
func TestExplainAnalyzeHashJoin(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cat := hashOpsCatalog(t)
	res := mustQuery(t, defaultConfig().engine(cat), "EXPLAIN ANALYZE SELECT l.v, fk.w FROM fk JOIN l ON l.k = fk.k")
	const want = "HashJoin (1 key(s), build=left) cols=(fk.w, l.v) [rows=110 batches=1 build_rows=24 probe_rows=120 sel=91.7%]"
	if !strings.Contains(res.Plan, want) {
		t.Fatalf("plan lacks %q:\n%s", want, res.Plan)
	}
	var join *OpStats
	for _, op := range res.Stats.Ops {
		if op.Build != "" {
			join = op
		}
	}
	if join == nil || join.Build != "left" || join.BuildRows != 24 || join.RowsIn != 120 || join.RowsOut != 110 {
		t.Fatalf("join counters %+v", join)
	}
	res = mustQuery(t, defaultConfig().engine(cat), "EXPLAIN ANALYZE SELECT big.k, l.v FROM big JOIN l ON big.k = l.k LIMIT 10")
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`HashJoin .* probe_rows=1024 `),
		regexp.MustCompile(`SeqScan big .*\[rows=1024 batches=1 `),
	} {
		if !want.MatchString(res.Plan) {
			t.Fatalf("plan lacks %s:\n%s", want, res.Plan)
		}
	}
}

// TestSharedSelectionIsNeverWritten: every dense batch's selection is a
// window of one package-level vector, so an operator writing through a
// selection would corrupt every other statement in the process. Two
// goroutines run the differential corpora and the datagen catalog's
// joins and folds (arenaCorpus) at once — under -race a write races the
// other's reads — and the vector must still be the identity (and the
// answers right) afterwards. Both goroutines share one engine per
// catalog and configuration, so the engine's statement arenas pass
// between them, and a buffer one statement still used while another
// was lent it races too.
func TestSharedSelectionIsNeverWritten(t *testing.T) {
	type stmt struct {
		cat     Catalog
		q       string
		ordered bool
	}
	var stmts []stmt
	tc, hc, dc := testCatalog(t), hashOpsCatalog(t), datagenCatalog(t, 5)
	for _, c := range differentialCorpus {
		stmts = append(stmts, stmt{tc, c.q, c.ordered})
	}
	for _, c := range hashOpsCorpus {
		stmts = append(stmts, stmt{hc, c.q, c.ordered})
	}
	for _, q := range arenaCorpus {
		stmts = append(stmts, stmt{dc, q, false})
	}
	configs := []engineConfig{naiveConfig(), defaultConfig()}
	engines := map[Catalog][]*Engine{}
	for _, cat := range []Catalog{tc, hc, dc} {
		for _, c := range configs {
			engines[cat] = append(engines[cat], c.engine(cat))
		}
	}
	results := make([][]*Result, 2) // per goroutine: statement-major, config-minor
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, s := range stmts {
				for ci, c := range configs {
					res, err := engines[s.cat][ci].Query(context.Background(), s.q)
					if err != nil {
						errs[g] = fmt.Errorf("query %q [%s]: %w", s.q, c.name, err)
						return
					}
					results[g] = append(results[g], res)
				}
			}
		}(g)
	}
	wg.Wait()
	for i, v := range identitySel {
		if v != i {
			t.Fatalf("identitySel[%d] = %d: something wrote through a shared selection", i, v)
		}
	}
	for g := range results {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, s := range stmts {
			want, err := refQuery(s.cat, s.q)
			if err != nil {
				t.Fatal(err)
			}
			for c := range configs {
				assertSameResult(t, s.q+" [shared "+configs[c].name+"]", s.ordered, want, results[g][i*len(configs)+c])
			}
		}
	}
}

// allocCatalog is the datagen catalog at the size the allocation guards
// are stated for: 17 600 potential activities, half of them present,
// over 16 families of 22 proteins — D1's family count, so a family is a
// sixteenth of the activities as in the benchmark.
func allocCatalog(t testing.TB) *DBCatalog {
	t.Helper()
	return datagenCatalogOf(t, func(cfg *datagen.Config) {
		cfg.Seed = 9
		cfg.NumFamilies = 16
		cfg.ProteinsPerFamily = 22
	})
}

// allocThresholds are the two affinity cuts the allocation guards run
// at, selecting ≈ 1.9 k and ≈ 8.6 k activities (2 and 9 batches).
const allocLo, allocHi = 8.35, 0.0

// allocShapes are the join- and aggregate-heavy benchmark shapes, with
// an affinity threshold to fill in.
var allocShapes = []struct {
	name   string
	q      string
	budget float64 // objects per statement at the larger threshold
}{
	{"family_agg", "SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity >= %.3f GROUP BY p.family", 350},
	{"integration3", "SELECT p.accession, n.organism, l.weight, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id JOIN ligands l ON a.ligand_id = l.ligand_id JOIN annotations n ON p.accession = n.protein_id WHERE p.family = 'FAM01' AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT 100", 850},
	{"ligand_rank", "SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE affinity >= %.3f GROUP BY ligand_id ORDER BY AVG(affinity) DESC LIMIT 10", 280},
}

// allocActivities returns how many activities the two thresholds select.
func allocActivities(t *testing.T, cat Catalog) (small, large int) {
	t.Helper()
	count := func(th float64) int {
		res := mustQuery(t, defaultConfig().engine(cat), fmt.Sprintf("SELECT COUNT(*) FROM activities WHERE affinity >= %.3f", th))
		return int(res.Rows[0][0].I)
	}
	small, large = count(allocLo), count(allocHi)
	if small < 1000 || small > 2000 || large < 8000 {
		t.Fatalf("thresholds select %d and %d activities; want ≈ 1.9 k and ≈ 8.6 k", small, large)
	}
	return small, large
}

// TestHashOperatorAllocs guards what the flat table, the keyed probe and
// the group-join bought: the join- and aggregate-heavy benchmark shapes
// allocate O(batches + groups) objects a statement, not O(rows). Each
// shape runs at both thresholds; the objects a statement allocates must
// stay under a budget at the larger one and grow by at most perBatch for
// each batch of input added — every operator a batch passes through
// allocates a few headers and its output vectors, and nothing else may
// scale with the input. Before the flat table the three shapes allocated
// two objects per aggregated row; before the keyed probe and the
// group-join they allocated 357, 1 159 and 256 objects at the larger
// threshold (315, 1 017 and 257 at the smaller). Planning's speculative
// column lookups formatted an error per miss until they returned a bool:
// integration3 allocated 836 objects, 749 after.
func TestHashOperatorAllocs(t *testing.T) {
	cat := allocCatalog(t)
	eng := defaultConfig().engine(cat)
	small, large := allocActivities(t, cat)
	const perBatch = 8 // objects per added batch, summed over the plan's operators
	addedBatches := float64((large+vecBatchSize-1)/vecBatchSize - (small+vecBatchSize-1)/vecBatchSize)
	for _, sh := range allocShapes {
		allocs := func(th float64) float64 {
			stmt, err := Parse(fmt.Sprintf(sh.q, th))
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := eng.Run(context.Background(), stmt); err != nil {
					t.Fatal(err)
				}
			})
		}
		few, many := allocs(allocLo), allocs(allocHi)
		t.Logf("%s: %.0f objects over %d activities, %.0f over %d", sh.name, few, small, many, large)
		if many > sh.budget {
			t.Errorf("%s: %.0f objects a statement over %d activities, budget %.0f", sh.name, many, large, sh.budget)
		}
		if many-few > perBatch*addedBatches {
			t.Errorf("%s: objects grow %.0f → %.0f as input grows %d → %d rows — more than %d a batch: allocation is per row somewhere", sh.name, few, many, small, large, perBatch)
		}
	}
}

// TestKeyedProbeResidualAllocs: a keyed probe runs its residual over
// the postings it reaches a chunk at a time, through buffers the read
// sizes once and reuses, so a probe over ≈ 5 000 postings allocates the
// same objects as one over ≈ 500 when the residual keeps the same rows
// (none here): nothing is allocated per posting or per chunk. The build
// side is the same four keys both times; only their fan-out differs.
func TestKeyedProbeResidualAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("object counts vary under the race detector")
	}
	const q = "SELECT p.v FROM keys k JOIN posts p ON k.k = p.k WHERE p.v + 1 < 0"
	allocs := func(fanout int) (float64, int64) {
		db, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		keys, err := db.CreateTable("keys", store.MustSchema(store.Column{Name: "k", Kind: store.KindInt}))
		if err != nil {
			t.Fatal(err)
		}
		posts, err := db.CreateTable("posts", store.MustSchema(store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "v", Kind: store.KindInt}))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10000; k++ {
			if k < 4 {
				db.Insert(keys.Name(), store.Row{store.IntValue(int64(k))})
				for j := 0; j < fanout; j++ {
					db.Insert(posts.Name(), store.Row{store.IntValue(int64(k)), store.IntValue(int64(j))})
				}
				continue
			}
			db.Insert(posts.Name(), store.Row{store.IntValue(int64(k)), store.IntValue(0)})
		}
		posts.CreateIndex("k", store.IndexHash)
		eng := defaultConfig().engine(NewDBCatalog(db, nil))
		res := mustQuery(t, eng, "EXPLAIN ANALYZE "+q)
		if !strings.Contains(res.Plan, "probe=keys") || !strings.Contains(res.Plan, "filter: ((p.v + 1) < 0) [rows=0") {
			t.Fatalf("not a keyed probe whose residual keeps nothing:\n%s", res.Plan)
		}
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := eng.Run(context.Background(), stmt); err != nil {
				t.Fatal(err)
			}
		}), res.Stats.RowsIndexed
	}
	few, small := allocs(125)
	many, large := allocs(1250)
	t.Logf("%.0f objects over %d postings, %.0f over %d", few, small, many, large)
	if small != 500 || large != 5000 {
		t.Fatalf("the probes examine %d and %d postings; want 500 and 5 000", small, large)
	}
	if many != few {
		t.Errorf("objects grow %.0f → %.0f as the probe's postings grow %d → %d", few, many, small, large)
	}
}

// TestJoinReadsOnlySurvivors guards the two ways a join reads only what
// survives, at the allocation guards' two thresholds. The
// integration3-shaped statement reads activities through the build
// side's keys: its access examines exactly the family's postings and
// emits exactly the rows the residual keeps (EXPLAIN ANALYZE's counters),
// where a range scan examined every activity over the threshold. The
// family_agg-shaped statement folds its matches without materializing
// them, and its probe scan is read straight from storage into one
// reused morsel buffer, so its bytes grow by the selection's 4-byte slot
// id a row and little else — where gathering the probe side cost 26
// bytes a row (a protein_id string header, an affinity and two null
// flags) and the joined pairs once doubled that.
func TestJoinReadsOnlySurvivors(t *testing.T) {
	cat := allocCatalog(t)
	small, large := allocActivities(t, cat)
	naive := func(q string) int64 {
		res, err := naiveConfig().engine(cat).Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	const family = "SELECT COUNT(*) FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE p.family = 'FAM01'"
	postings := naive(family)
	const keyed = "IndexUnionScan activities (protein_id ∈ join keys)"
	for _, th := range []float64{allocLo, allocHi} {
		survivors := naive(fmt.Sprintf(family+" AND a.affinity >= %.3f", th))
		t.Logf("integration3 at %.2f: the family's %d postings, %d over the threshold", th, postings, survivors)
		res := mustQuery(t, defaultConfig().engine(cat), "EXPLAIN ANALYZE "+fmt.Sprintf(allocShapes[1].q, th))
		var op *OpStats
		for _, o := range res.Stats.Ops {
			if strings.HasPrefix(o.Name, keyed) {
				op = o
			}
		}
		if op == nil {
			t.Fatalf("threshold %.2f: no %q:\n%s", th, keyed, res.Plan)
		}
		if op.RowsIn != postings || op.RowsOut != survivors {
			t.Fatalf("threshold %.2f: activities examined %d and emitted %d; the family has %d postings, %d over the threshold:\n%s",
				th, op.RowsIn, op.RowsOut, postings, survivors, res.Plan)
		}
	}
	eng := defaultConfig().engine(cat)
	bytes := func(th float64) float64 {
		stmt, err := Parse(fmt.Sprintf(allocShapes[0].q, th))
		if err != nil {
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := eng.Run(context.Background(), stmt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	few, many := bytes(allocLo), bytes(allocHi)
	perRow := (many - few) / float64(large-small)
	t.Logf("family_agg: %.1f KiB over %d activities, %.1f KiB over %d: %.1f bytes an added match", few/1024, small, many/1024, large, perRow)
	if perRow > 8 {
		t.Errorf("family_agg: bytes grow %.1f an added match; a slot id is 4", perRow)
	}
}
