package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// Tests for the index-driven access paths: rank ranges over a clade's
// preorder interval, index-ordered top-k, and the projected gather both
// engines share.

// benchShape is one statement shape of the repository benchmark. The
// texts are copied from bench/oplist.go (which this module cannot
// import); key is the sort-key column of the ordered shapes, -1 else.
type benchShape struct {
	name string
	q    string
	key  int
}

func benchShapes(clade string, threshold float64, family string, page int) []benchShape {
	return []benchShape{
		{"overlay_agg", fmt.Sprintf("SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", clade), -1},
		{"subtree_join", fmt.Sprintf("SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(p.accession, '%s') AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", clade, threshold, page), 2},
		{"topk", fmt.Sprintf("SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= %.3f ORDER BY affinity DESC LIMIT 20", threshold), 2},
		{"integration3", fmt.Sprintf("SELECT p.accession, n.organism, l.weight, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id JOIN ligands l ON a.ligand_id = l.ligand_id JOIN annotations n ON p.accession = n.protein_id WHERE p.family = '%s' AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", family, threshold, page), 3},
		{"ligand_rank", fmt.Sprintf("SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') GROUP BY ligand_id ORDER BY AVG(affinity) DESC LIMIT 10", clade), 2},
		{"family_agg", fmt.Sprintf("SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity >= %.3f GROUP BY p.family", threshold), -1},
	}
}

// assertSameOrdered compares two ORDER BY key DESC LIMIT k results:
// the sort-key sequence must match position by position (to ten
// digits: AVG keys are sums), and the rows ahead of the cut key must be
// the same multiset — only rows tied with the last key may differ.
func assertSameOrdered(t *testing.T, label string, key int, want, got []store.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	if len(want) == 0 {
		return
	}
	canonVal := func(v store.Value) string { return canonKey(store.Row{v}) }
	cut := canonVal(want[len(want)-1][key])
	var a, b []store.Row
	for i := range want {
		if canonVal(want[i][key]) != canonVal(got[i][key]) {
			t.Fatalf("%s: sort key %d is %v, want %v", label, i, got[i][key], want[i][key])
		}
		if canonVal(want[i][key]) != cut {
			a, b = append(a, want[i]), append(b, got[i])
		}
	}
	if !sameRowMultisetCanon(a, b) {
		t.Fatalf("%s: rows ahead of the cut differ", label)
	}
}

// TestDifferentialBenchShapes runs the six benchmark shapes over the
// datagen catalog across the engine matrix against the reference
// executor: plans byte-identical among the optimised configurations,
// row multisets identical, exact sort keys at the cut. It also pins which
// access path each shape is expected to take, so the matrix cannot
// silently agree on the wrong plan.
func TestDifferentialBenchShapes(t *testing.T) {
	cat := datagenCatalog(t, 7)
	clade := cladeOfSize(t, cat.Tree(), 20, 30)
	wantPath := map[string][]string{
		"overlay_agg":  {"IndexRangeScan activities (protein_id ∈ subtree " + clade + " → rank ["},
		"subtree_join": {"IndexRangeScan proteins (accession ∈ subtree " + clade + " → rank ["},
		"topk":         {"order=DESC limit=20"},
		"integration3": {"IndexScan proteins (family = \"FAM01\")"},
		"ligand_rank":  {"IndexRangeScan activities (protein_id ∈ subtree " + clade + " → rank ["},
		"family_agg":   {"IndexRangeScan activities (affinity in [8.5, ∞])"},
	}
	for _, th := range []float64{6.5, 8.5} {
		for _, sh := range benchShapes(clade, th, "FAM01", 100) {
			want, err := refQuery(cat, sh.q)
			if err != nil {
				t.Fatalf("%s: reference: %v", sh.name, err)
			}
			naive, err := naiveSerialConfig().engine(cat).Query(context.Background(), sh.q)
			if err != nil {
				t.Fatalf("%s: naive: %v", sh.name, err)
			}
			results := map[string]*Result{"naive-serial": naive}
			plan := ""
			for i, c := range diffMatrix() {
				got, err := c.engine(cat).Query(context.Background(), sh.q)
				if err != nil {
					t.Fatalf("%s: %s: %v", sh.name, c.name, err)
				}
				if i == 0 {
					plan = got.Plan
				} else if got.Plan != plan {
					t.Fatalf("%s: %s plan diverges\n%s:\n%s\n%s:\n%s", sh.name, c.name, diffMatrix()[0].name, plan, c.name, got.Plan)
				}
				results[c.name] = got
			}
			if th == 8.5 {
				for _, frag := range wantPath[sh.name] {
					if !strings.Contains(plan, frag) {
						t.Fatalf("%s: plan lacks %q:\n%s", sh.name, frag, plan)
					}
				}
			}
			for name, got := range results {
				label := fmt.Sprintf("%s th=%.1f [%s]", sh.name, th, name)
				if sh.key >= 0 {
					assertSameOrdered(t, label, sh.key, want.Rows, got.Rows)
				} else if !sameRowMultisetCanon(want.Rows, got.Rows) {
					t.Fatalf("%s: result multisets differ", label)
				}
			}
		}
	}
}

// fixedOverlay answers every node at every version: enough to see
// which rewrite the planner prefers.
type fixedOverlay struct{}

func (fixedOverlay) Table() string        { return "activities" }
func (fixedOverlay) KeyColumn() string    { return "protein_id" }
func (fixedOverlay) MetricColumn() string { return "affinity" }
func (fixedOverlay) Read(string, int64) (OverlayAgg, bool) {
	return OverlayAgg{Rows: 1, Count: 1, Sum: 1}, true
}

// TestAccessPathCrossover pins the planner's choice on either side of
// the crossover between a clade's rank range and an affinity range, and
// the overlay's precedence over both.
func TestAccessPathCrossover(t *testing.T) {
	cat := datagenCatalog(t, 7)
	explain := func(q string) string {
		t.Helper()
		res, err := NewEngine(cat, DefaultOptions()).Query(context.Background(), "EXPLAIN "+q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Plan
	}
	rank := "SELECT ligand_id, COUNT(*) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') GROUP BY ligand_id"
	// Every row lies under the root, and the rank range still reads them:
	// it needs no residual, so no share of the table tips it to a scan.
	root := cat.Tree().Len() - 1
	if plan := explain(fmt.Sprintf(rank, "clade_0")); !strings.Contains(plan, fmt.Sprintf("IndexRangeScan activities (protein_id ∈ subtree clade_0 → rank [0, %d]) cols=(ligand_id)", root)) {
		t.Fatalf("root clade did not take the rank range:\n%s", plan)
	}
	clade := cladeOfSize(t, cat.Tree(), 25, 30)
	plan := explain(fmt.Sprintf(rank, clade))
	if !strings.Contains(plan, "IndexRangeScan activities (protein_id ∈ subtree "+clade+" → rank [") || !strings.Contains(plan, "cols=(ligand_id)") || strings.Contains(plan, "filter") {
		t.Fatalf("30-leaf clade did not take the projected rank range:\n%s", plan)
	}
	// An affinity range visiting fewer postings than the clade wins, with
	// the subtree conjunct as its residual; a wider one loses.
	for _, c := range []struct {
		min  float64
		path string
	}{
		{9.9, "IndexRangeScan activities (affinity in [9.9, ∞]) cols=(ligand_id) filter: WITHIN_SUBTREE(protein_id, '" + clade + "')"},
		{0, "IndexRangeScan activities (protein_id ∈ subtree " + clade + " → rank ["},
	} {
		q := fmt.Sprintf("SELECT ligand_id, COUNT(*) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') AND affinity >= %g GROUP BY ligand_id", clade, c.min)
		if plan := explain(q); !strings.Contains(plan, c.path) {
			t.Fatalf("affinity >= %g: plan lacks %q:\n%s", c.min, c.path, plan)
		}
	}
	// Without indexes the rank range is off the table.
	noIdx := DefaultOptions()
	noIdx.UseIndexes = false
	res, err := NewEngine(cat, noIdx).Query(context.Background(), "EXPLAIN "+fmt.Sprintf(rank, clade))
	if err != nil || !strings.Contains(res.Plan, "SeqScan activities") {
		t.Fatalf("UseIndexes=false plan (err %v):\n%s", err, res.Plan)
	}
	// An overlay-eligible aggregate is still answered by the overlay.
	agg := fmt.Sprintf("SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", clade)
	if plan := explain(agg); !strings.Contains(plan, "→ rank [") {
		t.Fatalf("aggregate without an overlay:\n%s", plan)
	}
	cat.OverlayAggs = fixedOverlay{}
	if plan := explain(agg); !strings.Contains(plan, "OverlayRead activities@"+clade) || strings.Contains(plan, "Scan") {
		t.Fatalf("overlay lost precedence:\n%s", plan)
	}
}

// TestRangeColumnChoice: with ranges on two B+-tree columns, the scan
// walks the one that visits fewer postings, whatever the conjunct
// order, and a tie goes to the earlier column in the schema.
func TestRangeColumnChoice(t *testing.T) {
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	two, err := db.CreateTable("two", store.MustSchema(
		store.Column{Name: "a", Kind: store.KindInt},
		store.Column{Name: "b", Kind: store.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Insert(two.Name(), store.Row{store.IntValue(int64(i)), store.IntValue(int64(100 - i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"a", "b"} {
		if err := two.CreateIndex(col, store.IndexBTree); err != nil {
			t.Fatal(err)
		}
	}
	eng := serialConfig().engine(NewDBCatalog(db, nil))
	for _, c := range []struct{ where, path string }{
		// a visits 11 postings, b 91.
		{"a >= 10 AND a <= 20 AND b >= 5 AND b <= 95", "a in [10, 20]"},
		{"b >= 5 AND b <= 95 AND a >= 10 AND a <= 20", "a in [10, 20]"},
		// b visits 11 postings, a 91.
		{"a >= 5 AND a <= 95 AND b >= 10 AND b <= 20", "b in [10, 20]"},
		// 11 postings each: the schema's first column wins.
		{"b >= 80 AND b <= 90 AND a >= 10 AND a <= 20", "a in [10, 20]"},
		{"a >= 10 AND a <= 20 AND b >= 80 AND b <= 90", "a in [10, 20]"},
	} {
		q := "SELECT a FROM two WHERE " + c.where
		for i := 0; i < 100; i++ {
			res, err := eng.Query(context.Background(), "EXPLAIN "+q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(res.Plan, "IndexRangeScan two ("+c.path+")") {
				t.Fatalf("run %d of %s: want the range %s:\n%s", i, q, c.path, res.Plan)
			}
		}
	}
}

// TestMirroredComparisonsPlanAlike: lit OP col is estimated and served
// as col flipCompare(OP) lit, so the two spellings of one comparison
// give the same plan but for the filter's rendering — the join order,
// build sides, probe paths and index ranges included.
func TestMirroredComparisonsPlanAlike(t *testing.T) {
	eng := serialConfig().engine(testCatalog(t))
	const (
		threeWay = "SELECT p.accession, l.weight FROM proteins p JOIN activities a ON p.accession = a.protein_id JOIN ligands l ON a.ligand_id = l.ligand_id WHERE "
		twoWay   = "SELECT p.accession, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE "
	)
	for _, c := range []struct{ q, col, mirror string }{
		{threeWay, "a.affinity > 8.5", "8.5 < a.affinity"},
		{threeWay, "a.affinity <= 5", "5 >= a.affinity"},
		{twoWay, "p.length < 200", "200 > p.length"},
		{twoWay, "p.length >= 150", "150 <= p.length"},
		{twoWay, "p.length > 150 AND a.affinity < 6", "150 < p.length AND 6 > a.affinity"},
	} {
		explain := func(where string) string {
			t.Helper()
			res, err := eng.Query(context.Background(), "EXPLAIN "+c.q+where)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			return res.Plan
		}
		want := explain(c.col)
		got := explain(c.mirror)
		// Restate each rendered mirrored conjunct in col OP lit form.
		cols, mirrors := strings.Split(c.col, " AND "), strings.Split(c.mirror, " AND ")
		for i := range cols {
			got = strings.ReplaceAll(got, "("+mirrors[i]+")", "("+cols[i]+")")
		}
		if got != want {
			t.Errorf("WHERE %s plans differently from WHERE %s:\n%s\nvs\n%s", c.mirror, c.col, got, want)
		}
	}
}

// TestSubtreePredicateCrossesJoin: the subtree predicate on one side of
// an equi-join reaches the other side's scan, in either direction and
// along a chain, and never crosses a non-equi condition.
func TestSubtreePredicateCrossesJoin(t *testing.T) {
	cat := datagenCatalog(t, 7)
	explain := func(q string) string {
		t.Helper()
		res, err := NewEngine(cat, DefaultOptions()).Query(context.Background(), "EXPLAIN "+q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Plan
	}
	clade := cladeOfSize(t, cat.Tree(), 20, 30)
	for _, q := range []string{
		"SELECT p.accession, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(p.accession, '" + clade + "')",
		"SELECT p.accession, a.affinity FROM proteins p JOIN activities a ON a.protein_id = p.accession WHERE WITHIN_SUBTREE(a.protein_id, '" + clade + "')",
	} {
		plan := explain(q)
		for _, frag := range []string{"IndexRangeScan proteins (accession ∈ subtree " + clade + " → rank [", "IndexRangeScan activities (protein_id ∈ subtree " + clade + " → rank ["} {
			if !strings.Contains(plan, frag) {
				t.Fatalf("%s\nplan lacks %q:\n%s", q, frag, plan)
			}
		}
	}
	chain := explain("SELECT n.organism, a.affinity FROM annotations n JOIN proteins p ON n.protein_id = p.accession JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(n.protein_id, '" + clade + "')")
	for _, tab := range []string{"annotations", "proteins", "activities"} {
		if !strings.Contains(chain, "IndexRangeScan "+tab+" (protein_id ∈ subtree ") && !strings.Contains(chain, "IndexRangeScan "+tab+" (accession ∈ subtree ") {
			t.Fatalf("chain did not carry the predicate to %s:\n%s", tab, chain)
		}
	}
	nonEqui := explain("SELECT p.accession, a.affinity FROM proteins p JOIN activities a ON p.accession < a.protein_id WHERE WITHIN_SUBTREE(p.accession, '" + clade + "')")
	if strings.Contains(nonEqui, "IndexRangeScan activities") {
		t.Fatalf("predicate crossed a non-equi join:\n%s", nonEqui)
	}
}

// TestTopKPushdownShapes: the ordered walk fires only where the first
// k rows of the index range are the answer, and every shape — pushed or
// not — answers as the reference executor does across the matrix.
func TestTopKPushdownShapes(t *testing.T) {
	cat := datagenCatalog(t, 7)
	for _, c := range []struct {
		q    string
		want bool
		key  int // output column holding the sort key; -1 compares row counts only
	}{
		{"SELECT protein_id, affinity FROM activities WHERE affinity >= 7 ORDER BY affinity DESC LIMIT 5", true, 1},
		{"SELECT protein_id, affinity FROM activities WHERE affinity > 7 AND affinity < 9 ORDER BY affinity LIMIT 5", true, 1},
		// The sort key is hidden from the output (a renaming projection).
		{"SELECT protein_id FROM activities WHERE affinity >= 7 ORDER BY affinity DESC LIMIT 5", true, -1},
		{"SELECT * FROM activities WHERE affinity >= 7 AND ligand_id != 'LIG0001' ORDER BY affinity DESC LIMIT 5", true, 2},
		// Two sort keys: ties on the first need the second.
		{"SELECT protein_id, affinity FROM activities WHERE affinity >= 7 ORDER BY affinity DESC, protein_id LIMIT 5", false, 1},
		// Sorted by another column than the range's.
		{"SELECT protein_id, affinity FROM activities WHERE affinity >= 7 ORDER BY protein_id LIMIT 5", false, 0},
		// A join or an aggregate between the sort and the scan.
		{"SELECT p.family, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity >= 7 ORDER BY a.affinity DESC LIMIT 5", false, 1},
		{"SELECT affinity, COUNT(*) FROM activities WHERE affinity >= 7 GROUP BY affinity ORDER BY affinity DESC LIMIT 5", false, 0},
		// No LIMIT.
		{"SELECT protein_id, affinity FROM activities WHERE affinity >= 7 ORDER BY affinity DESC", false, 1},
	} {
		res, err := NewEngine(cat, DefaultOptions()).Query(context.Background(), "EXPLAIN "+c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if got := strings.Contains(res.Plan, " limit=5"); got != c.want {
			t.Fatalf("%s\nordered walk = %v, want %v:\n%s", c.q, got, c.want, res.Plan)
		}
		want, err := refQuery(cat, c.q)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.q, err)
		}
		for _, m := range append(diffMatrix(), naiveSerialConfig()) {
			got, err := m.engine(cat).Query(context.Background(), c.q)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.q, m.name, err)
			}
			if c.key < 0 {
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s [%s]: %d rows, want %d", c.q, m.name, len(got.Rows), len(want.Rows))
				}
				continue
			}
			assertSameOrdered(t, c.q+" ["+m.name+"]", c.key, want.Rows, got.Rows)
		}
	}
}

// pollOnlyCtx reports cancellation through Err alone, after its first
// call (RunAt's entry check): Done never fires, so the executor's own
// cancellers stay quiet and only the store's walk — which polls Err —
// can notice. A Canceled result therefore proves the walk polled.
type pollOnlyCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *pollOnlyCtx) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestIndexWalksPollContext: the ordered walk and the rank range run
// under the statement's context.
func TestIndexWalksPollContext(t *testing.T) {
	// 12 proteins × 600 activities; clade A holds two of them (1 200
	// postings: past one poll interval).
	db, err := store.Open("")
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
	tree := phylo.NewTree()
	root, _ := tree.AddNode("root", phylo.None, 0)
	cladeA, _ := tree.AddNode("A", root, 1)
	cladeB, _ := tree.AddNode("B", root, 1)
	for p := 0; p < 12; p++ {
		parent := cladeB
		if p < 2 {
			parent = cladeA
		}
		name := fmt.Sprintf("P%02d", p)
		tree.AddNode(name, parent, 1)
		for i := 0; i < 600; i++ {
			db.Insert(act.Name(), store.Row{store.StringValue(name), store.StringValue(fmt.Sprintf("L%03d", i)), store.FloatValue(float64(i%97) / 10)})
		}
	}
	if err := tree.Index(); err != nil {
		t.Fatal(err)
	}
	act.CreateIndex("protein_id", store.IndexHash)
	act.CreateIndex("affinity", store.IndexBTree)
	rankByTree(t, db, tree)
	cat := NewDBCatalog(db, tree)
	for _, c := range []struct{ q, path string }{
		// The residual rejects every row, so the walk visits the whole range.
		{"SELECT protein_id, affinity FROM activities WHERE affinity >= 0 AND ligand_id = 'none' ORDER BY affinity DESC LIMIT 5", "order=DESC limit=5"},
		{"SELECT ligand_id, COUNT(*) FROM activities WHERE WITHIN_SUBTREE(protein_id, 'A') GROUP BY ligand_id", "IndexRangeScan activities (protein_id ∈ subtree A → rank ["},
	} {
		for _, cfg := range diffMatrix() {
			eng := cfg.engine(cat)
			res, err := eng.Query(context.Background(), c.q)
			if err != nil || !strings.Contains(res.Plan, c.path) {
				t.Fatalf("%s: err %v, plan:\n%s", c.q, err, res.Plan)
			}
			_, err = eng.Query(&pollOnlyCtx{Context: context.Background()}, c.q)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s [%s]: err = %v, want context.Canceled from the store walk", c.q, cfg.name, err)
			}
		}
	}
	if n := db.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots left pinned by cancelled statements", n)
	}
}

// --- MVCC oracle ---

// mvccStatements are read through the new paths by the optimized
// engines and by scan + filter + sort under NaiveOptions (no rewrite,
// no pushdown, no index: none of the access code). key is the sort-key
// column of an ORDER BY ... LIMIT statement, -1 for a multiset.
var mvccStatements = []struct {
	q    string
	path string
	key  int
}{
	{"SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= 6 ORDER BY affinity DESC LIMIT 12", "order=DESC limit=12", 2},
	{"SELECT protein_id, affinity FROM activities WHERE affinity > 2 AND affinity <= 7 ORDER BY affinity LIMIT 9", "order=ASC limit=9", 1},
	{"SELECT ligand_id, COUNT(*), SUM(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, 'FAM1') GROUP BY ligand_id", "→ rank [", -1},
	{"SELECT p.accession, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(p.accession, 'FAM0') AND a.affinity >= 5", "IndexRangeScan activities (protein_id ∈ subtree FAM0 → rank [", -1},
	{"SELECT ligand_id, affinity FROM activities WHERE affinity BETWEEN 4 AND 6", "IndexRangeScan", -1},
	{"SELECT ligand_id FROM activities WHERE protein_id = 'P005'", "IndexScan", -1},
}

// mvccCatalog is the small test catalog with more activities per
// protein: 60 proteins, four of them in the tree, 1 500 rows.
func mvccCatalog(t *testing.T) (*DBCatalog, *store.Table) {
	t.Helper()
	cat := testCatalog(t)
	act, err := cat.Table("activities")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1320; i++ {
		if _, err := cat.DB.Insert("activities", mvccRow(rng)); err != nil {
			t.Fatal(err)
		}
	}
	return cat, act
}

// mvccRow draws affinities from fifteen values (ties straddle every
// cut) and a tenth NULL.
func mvccRow(rng *rand.Rand) store.Row {
	aff := store.FloatValue(float64(rng.Intn(15)) / 2)
	if rng.Intn(10) == 0 {
		aff = store.NullValue()
	}
	return store.Row{
		store.StringValue(fmt.Sprintf("P%03d", rng.Intn(60))),
		store.StringValue(fmt.Sprintf("L%02d", rng.Intn(10))),
		aff,
	}
}

// mvccCommit publishes one random change to activities: a delta of
// deletes and inserts, or a one-row replace that moves a row's keys.
func mvccCommit(db *store.DB, act *store.Table, rng *rand.Rand) error {
	var ids []int64
	act.Scan(func(id int64, _ store.Row) bool { ids = append(ids, id); return true })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if rng.Intn(3) == 0 {
		return db.CommitDeltas([]store.TableDelta{{
			Table:     "activities",
			DeleteIDs: []int64{ids[rng.Intn(len(ids))]},
			Inserts:   []store.Row{mvccRow(rng)},
		}})
	}
	d := store.TableDelta{Table: "activities"}
	seen := map[int64]bool{}
	for i := rng.Intn(8); i > 0; i-- {
		if id := ids[rng.Intn(len(ids))]; !seen[id] {
			seen[id] = true
			d.DeleteIDs = append(d.DeleteIDs, id)
		}
	}
	for i := len(d.DeleteIDs) + rng.Intn(3); i > 0; i-- {
		d.Inserts = append(d.Inserts, mvccRow(rng))
	}
	return db.CommitDeltas([]store.TableDelta{d})
}

// checkAtSnapshot runs every statement on every optimized engine and
// on the reference executor against one pinned snapshot and compares.
func checkAtSnapshot(cat Catalog, snap *store.SnapshotHandle) error {
	ctx := context.Background()
	for _, st := range mvccStatements {
		stmt, err := Parse(st.q)
		if err != nil {
			return err
		}
		want, err := refRunAt(cat, stmt, snap)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", st.q, err)
		}
		for _, c := range diffMatrix() {
			got, err := c.engine(cat).RunAt(ctx, stmt, snap)
			if err != nil {
				return fmt.Errorf("%s [%s]: %w", st.q, c.name, err)
			}
			if !strings.Contains(got.Plan, st.path) {
				return fmt.Errorf("%s [%s]: plan lacks %q:\n%s", st.q, c.name, st.path, got.Plan)
			}
			rows := store.RowsFromColBatch(got.Batch, got.Dict)
			if len(rows) != len(want.Rows) {
				return fmt.Errorf("%s [%s]: %d rows, the reference has %d", st.q, c.name, len(rows), len(want.Rows))
			}
			if st.key < 0 {
				if !sameRowMultisetCanon(want.Rows, rows) {
					return fmt.Errorf("%s [%s]: rows differ from the reference", st.q, c.name)
				}
				continue
			}
			// Exact key sequence; rows ahead of the cut key exact.
			var a, b []store.Row
			cut := want.Rows[len(want.Rows)-1][st.key]
			for i := range want.Rows {
				w, g := want.Rows[i][st.key], rows[i][st.key]
				if store.Compare(w, g) != 0 {
					return fmt.Errorf("%s [%s]: sort key %d is %v, the reference has %v", st.q, c.name, i, g, w)
				}
				if store.Compare(w, cut) != 0 {
					a, b = append(a, want.Rows[i]), append(b, rows[i])
				}
			}
			if !sameRowMultisetCanon(a, b) {
				return fmt.Errorf("%s [%s]: rows ahead of the cut differ from the reference", st.q, c.name)
			}
		}
	}
	return nil
}

// TestAccessPathsMatchNaiveScanAtPinnedVersions interleaves commits
// with snapshots pinned at several versions; every pin must keep
// answering as the reference executor does at its own version.
func TestAccessPathsMatchNaiveScanAtPinnedVersions(t *testing.T) {
	cat, act := mvccCatalog(t)
	rng := rand.New(rand.NewSource(21))
	var pins []*store.SnapshotHandle
	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < 6; i++ {
			if err := mvccCommit(cat.DB, act, rng); err != nil {
				t.Fatal(err)
			}
		}
		pins = append(pins, cat.PinSnapshot())
		if len(pins) > 3 {
			pins[0].Release()
			pins = pins[1:]
		}
		for _, snap := range pins {
			if err := checkAtSnapshot(cat, snap); err != nil {
				v, _ := snap.Version("activities")
				t.Fatalf("round %d, pinned at activities version %d (latest %d): %v", round, v, act.Version(), err)
			}
		}
	}
	for _, snap := range pins {
		snap.Release()
	}
	if n := cat.DB.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots still active", n)
	}
	if n := cat.DB.DeadVersions(); n != 0 {
		t.Fatalf("%d dead versions after the last release", n)
	}
}

// TestAccessPathsUnderConcurrentCommitter is the same comparison while
// a committer publishes continuously (run under -race). Both sides read
// one pinned snapshot, so they must agree whatever lands meanwhile.
func TestAccessPathsUnderConcurrentCommitter(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cat, act := mvccCatalog(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(22))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := mvccCommit(cat.DB, act, rng); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()
	checks := 12
	if testing.Short() {
		checks = 4
	}
	for i := 0; i < checks; i++ {
		snap := cat.PinSnapshot()
		err := checkAtSnapshot(cat, snap)
		snap.Release()
		if err != nil {
			t.Errorf("check %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if n := cat.DB.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots still active", n)
	}
	waitGoroutines(t, baseline, 2*time.Second)
}
