package query

import (
	"context"
	"fmt"
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
		l.Insert(store.Row{nullEvery(i, 11, store.IntValue(int64(i%10))), nullEvery(i, 7, store.StringValue(k2s[i%3])), store.IntValue(int64(i))})
	}
	r := mk("r", store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "k2", Kind: store.KindString}, store.Column{Name: "w", Kind: store.KindFloat})
	for i := 0; i < 90; i++ {
		r.Insert(store.Row{nullEvery(i, 13, store.IntValue(int64(5+i%10))), nullEvery(i, 5, store.StringValue(k2s[(i/2)%3])), store.FloatValue(float64(i) / 4)})
	}
	fk := mk("fk", store.Column{Name: "k", Kind: store.KindFloat}, store.Column{Name: "w", Kind: store.KindInt})
	for i := 0; i < 24; i++ {
		fk.Insert(store.Row{store.FloatValue(float64(i) / 2), store.IntValue(int64(i))})
	}
	big := mk("big", store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "s", Kind: store.KindString})
	for i := 0; i < 2600; i++ {
		s := "y"
		if i == 1300 {
			s = "x"
		}
		big.Insert(store.Row{store.IntValue(int64(i % 50)), store.StringValue(s)})
	}
	mk("e", store.Column{Name: "k", Kind: store.KindInt}, store.Column{Name: "v", Kind: store.KindInt})
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
	{q: "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k", plan: "cols=()"},
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
	{q: "SELECT COUNT(*), MIN(l.v) FROM l JOIN e ON l.k = e.k"},
	{q: "SELECT k, COUNT(*) FROM e GROUP BY k"},
	{q: "SELECT COUNT(*), MAX(s) FROM big WHERE k < 0"},
	// IN (subquery) over the same table: NULLs on both sides, widening.
	{q: "SELECT v FROM l WHERE k IN (SELECT k FROM r)"},
	{q: "SELECT w FROM fk WHERE k IN (SELECT k FROM l WHERE v > 3)"},
	{q: "SELECT k, COUNT(*) FROM big WHERE k IN (SELECT k FROM r) GROUP BY k ORDER BY k", ordered: true},
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
// order: serial, parallel and repeated runs return the same rows in the
// same sequence.
func TestJoinLimitOrderIsStable(t *testing.T) {
	cat := hashOpsCatalog(t)
	for _, q := range []string{
		"SELECT l.v, r.w FROM l JOIN r ON l.k = r.k LIMIT 37",
		"SELECT big.k, l.v FROM big JOIN l ON big.k = l.k LIMIT 1500",
		"SELECT big.k, l.v FROM l JOIN big ON big.k = l.k WHERE l.v > big.k LIMIT 1100",
		"SELECT a.k, b.k FROM l a JOIN r b ON a.v < b.w LIMIT 50",
	} {
		want := runQ(t, cat, serialOptions(), q)
		ref, err := refQuery(cat, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != len(ref.Rows) || len(want.Rows) == 0 {
			t.Fatalf("query %q: %d rows, reference %d", q, len(want.Rows), len(ref.Rows))
		}
		for run := 0; run < 3; run++ {
			for _, para := range []int{1, 2, diffParallelism} {
				got := runQ(t, cat, parallelOptions(para), q)
				if got.Plan != want.Plan {
					t.Fatalf("query %q: plan at parallelism %d diverges:\n%s\nvs\n%s", q, para, got.Plan, want.Plan)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("query %q: parallelism %d returned %d rows, serial %d", q, para, len(got.Rows), len(want.Rows))
				}
				for i := range want.Rows {
					if canonKey(got.Rows[i]) != canonKey(want.Rows[i]) {
						t.Fatalf("query %q: parallelism %d row %d is %v, serial %v", q, para, i, got.Rows[i], want.Rows[i])
					}
				}
			}
		}
	}
}

// TestExplainAnalyzeHashJoin: a hash join's annotation carries both
// input sizes and a selectivity, the same serial and parallel.
func TestExplainAnalyzeHashJoin(t *testing.T) {
	cat := hashOpsCatalog(t)
	const q = "EXPLAIN ANALYZE SELECT l.v, fk.w FROM fk JOIN l ON l.k = fk.k"
	const want = "HashJoin (1 key(s), build=left) cols=(fk.w, l.v) [rows=110 batches=1 build_rows=24 probe_rows=120 sel=91.7%]"
	for _, para := range []int{1, diffParallelism} {
		res := runQ(t, cat, parallelOptions(para), q)
		if !strings.Contains(res.Plan, want) {
			t.Fatalf("parallelism %d: plan lacks %q:\n%s", para, want, res.Plan)
		}
		var join *OpStats
		for _, op := range res.Stats.Ops {
			if op.Build != "" {
				join = op
			}
		}
		if join == nil || join.Build != "left" || join.BuildRows != 24 || join.RowsIn != 120 || join.RowsOut != 110 {
			t.Fatalf("parallelism %d: join counters %+v", para, join)
		}
	}
}

// TestSharedSelectionIsNeverWritten: every dense batch's selection is a
// window of one package-level vector, so an operator writing through a
// selection would corrupt every other statement in the process. Two
// goroutines run the differential corpora at once — under -race a write
// races the other's reads — and the vector must still be the identity
// (and the answers right) afterwards.
func TestSharedSelectionIsNeverWritten(t *testing.T) {
	type stmt struct {
		cat     Catalog
		q       string
		ordered bool
	}
	var stmts []stmt
	tc, hc := testCatalog(t), hashOpsCatalog(t)
	for _, c := range differentialCorpus {
		stmts = append(stmts, stmt{tc, c.q, c.ordered})
	}
	for _, c := range hashOpsCorpus {
		stmts = append(stmts, stmt{hc, c.q, c.ordered})
	}
	configs := diffMatrix()
	results := make([][]*Result, 2) // per goroutine: statement-major, config-minor
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, s := range stmts {
				for _, c := range configs {
					res, err := NewEngine(s.cat, c.opts).Query(context.Background(), s.q)
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

// allocCatalog is the datagen catalog at the size the allocation guard
// is stated for: 18 000 potential activities, half of them present.
func allocCatalog(t testing.TB) *DBCatalog {
	t.Helper()
	return datagenCatalogOf(t, func(cfg *datagen.Config) {
		cfg.Seed = 9
		cfg.ProteinsPerFamily = 60
	})
}

// TestHashOperatorAllocs guards what the flat table bought: the
// join- and aggregate-heavy benchmark shapes allocate O(batches +
// groups) objects a statement, not O(rows). Each shape runs at two
// affinity thresholds that select ≈ 1.4 k and ≈ 9 k activities (2 and 9
// batches); the objects a statement allocates must stay under a budget
// at the larger one and grow by at most perBatch for each batch of input
// added — every operator a batch passes through allocates a few
// headers and its output vectors, and nothing else may scale with the
// input. Before the flat table the three shapes allocated 20 338,
// 2 490 and 18 148 objects at the larger threshold (4 210, 1 741 and
// 3 203 at the smaller): two objects per aggregated row.
func TestHashOperatorAllocs(t *testing.T) {
	cat := allocCatalog(t)
	eng := NewEngine(cat, serialOptions())
	count := func(q string) int {
		res := runQ(t, cat, serialOptions(), q)
		return int(res.Rows[0][0].I)
	}
	const lo, hi = 8.35, 0.0
	small, large := count(fmt.Sprintf("SELECT COUNT(*) FROM activities WHERE affinity >= %.3f", lo)), count(fmt.Sprintf("SELECT COUNT(*) FROM activities WHERE affinity >= %.3f", hi))
	if small < 1000 || small > 2000 || large < 8000 {
		t.Fatalf("thresholds select %d and %d activities; want ≈ 1.4 k and ≈ 9 k", small, large)
	}
	shapes := []struct {
		name   string
		q      string
		budget float64 // objects per statement at the larger threshold
	}{
		{"family_agg", "SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity >= %.3f GROUP BY p.family", 500},
		{"integration3", "SELECT p.accession, n.organism, l.weight, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id JOIN ligands l ON a.ligand_id = l.ligand_id JOIN annotations n ON p.accession = n.protein_id WHERE p.family = 'FAM01' AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT 100", 1600},
		{"ligand_rank", "SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE affinity >= %.3f GROUP BY ligand_id ORDER BY AVG(affinity) DESC LIMIT 10", 350},
	}
	const perBatch = 32 // objects per added batch, summed over the plan's operators
	addedBatches := float64((large+vecBatchSize-1)/vecBatchSize - (small+vecBatchSize-1)/vecBatchSize)
	for _, sh := range shapes {
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
		few, many := allocs(lo), allocs(hi)
		t.Logf("%s: %.0f objects over %d activities, %.0f over %d", sh.name, few, small, many, large)
		if many > sh.budget {
			t.Errorf("%s: %.0f objects a statement over %d activities, budget %.0f", sh.name, many, large, sh.budget)
		}
		if many-few > perBatch*addedBatches {
			t.Errorf("%s: objects grow %.0f → %.0f as input grows %d → %d rows — more than %d a batch: allocation is per row somewhere", sh.name, few, many, small, large, perBatch)
		}
	}
}
