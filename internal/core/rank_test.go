package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"drugtree/internal/integrate"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// TestRankIndexMatchesScanUnderChurn: over every clade of smokeD1, the
// subtree_join, ligand_rank and COUNT/AVG shapes answer through the
// coded columns read by rank under the tree's ranking New publishes
// exactly as a scan with UseIndexes off does — before a commit, after
// one that adds activities for a protein the tree holds, deletes others
// and inserts a protein no node names, then activities under a NULL
// protein and under a second name first committed after the engine was
// built, and at a snapshot pinned before them. The unplaced names and
// the NULL lie in no clade, so neither path returns them.
func TestRankIndexMatchesScanUnderChurn(t *testing.T) {
	e, _ := buildEngineFrom(t, smokeD1(), DefaultConfig())
	db, tree := e.DB(), e.Tree()
	// Engines over a plain catalog: no overlay answers the COUNT/AVG
	// shape ahead of the access path.
	ranked := query.NewEngine(query.NewDBCatalog(db, tree), query.DefaultOptions())
	noIdx := query.DefaultOptions()
	noIdx.UseIndexes = false
	scanned := query.NewEngine(query.NewDBCatalog(db, tree), noIdx)
	shapes := []struct{ name, q, path string }{
		{"subtree_join", "SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(p.accession, '%s') AND a.affinity >= 5.5", "IndexRangeScan proteins (accession ∈ subtree %s → rank ["},
		{"ligand_rank", "SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') GROUP BY ligand_id", "IndexRangeScan activities (protein_id ∈ subtree %s → rank ["},
		{"count_avg", "SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", "IndexRangeScan activities (protein_id ∈ subtree %s → rank ["},
	}
	var clades []string
	for id := phylo.NodeID(0); int(id) < tree.Len(); id++ {
		if !tree.Node(id).IsLeaf() {
			clades = append(clades, tree.Node(id).Name)
		}
	}
	ctx := context.Background()
	run := func(eng *query.Engine, snap *store.SnapshotHandle, q string) []string {
		t.Helper()
		stmt, err := query.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunAt(ctx, stmt, snap)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rows := store.RowsFromColBatch(res.Batch, res.Dict)
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = canonRow(r)
		}
		sort.Strings(out)
		return out
	}
	// check compares the two engines on every clade and shape at snap and
	// returns the answers.
	check := func(label string, snap *store.SnapshotHandle) map[string][]string {
		t.Helper()
		answers := map[string][]string{}
		for _, clade := range clades {
			for _, sh := range shapes {
				q := fmt.Sprintf(sh.q, clade)
				got, want := run(ranked, snap, q), run(scanned, snap, q)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: %s over %s: rank index answers\n%v\nscan answers\n%v", label, sh.name, clade, got, want)
				}
				answers[sh.name+"/"+clade] = got
			}
		}
		return answers
	}
	for _, sh := range shapes {
		res, err := ranked.Query(ctx, "EXPLAIN "+fmt.Sprintf(sh.q, clades[1]))
		if err != nil || !strings.Contains(res.Plan, fmt.Sprintf(sh.path, clades[1])) {
			t.Fatalf("%s: plan lacks the rank range (err %v):\n%s", sh.name, err, res.Plan)
		}
	}
	pinned := db.PinSnapshot()
	defer pinned.Release()
	before := check("before the commit", pinned)

	act, err := db.Table(integrate.TableActivities)
	if err != nil {
		t.Fatal(err)
	}
	acc := act.Schema().ColumnIndex("protein_id")
	var ids []int64
	var placed string
	act.Scan(func(id int64, r store.Row) bool {
		ids = append(ids, id)
		placed = r[acc].S
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	const unplaced, late = "ZZ_UNPLACED", "ZZ_LATE"
	for _, name := range []string{unplaced, late} {
		if _, ok := tree.NodeByName(name); ok {
			t.Fatalf("the tree names %s", name)
		}
	}
	s, f := store.StringValue, store.FloatValue
	var deletes []int64
	for i := 0; i < len(ids); i += 37 {
		deletes = append(deletes, ids[i])
	}
	if err := db.CommitDeltas([]store.TableDelta{
		{Table: integrate.TableActivities, DeleteIDs: deletes, Inserts: []store.Row{
			{s(placed), s("L-new-1"), f(9.25), s("Kd")},
			{s(placed), s("L-new-2"), f(4.5), s("Ki")},
			{s(unplaced), s("L-new-1"), f(8.75), s("Kd")},
		}},
		{Table: integrate.TableProteins, Inserts: []store.Row{
			{s(unplaced), s("unplaced"), s("FAM99"), s("MKV"), store.IntValue(3)},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CommitDeltas([]store.TableDelta{{Table: integrate.TableActivities, Inserts: []store.Row{
		{store.NullValue(), s("L-new-2"), f(7.5), s("Kd")},
		{s(late), s("L-new-1"), f(6.25), s("Ki")},
	}}}); err != nil {
		t.Fatal(err)
	}
	fresh := db.PinSnapshot()
	defer fresh.Release()
	after := check("after the commit", fresh)
	if again := check("at the snapshot pinned before the commit", pinned); fmt.Sprint(again) != fmt.Sprint(before) {
		t.Fatal("the pinned snapshot's answers moved with the commit")
	}
	if fmt.Sprint(after) == fmt.Sprint(before) {
		t.Fatal("the commit moved no answer")
	}
	root := tree.Node(0).Name
	for _, row := range after["subtree_join/"+root] {
		if strings.Contains(row, unplaced) || strings.Contains(row, late) {
			t.Fatalf("an unplaced protein is in the root clade's join: %s", row)
		}
	}
	placedRows := 0
	act.Scan(func(_ int64, r store.Row) bool {
		if _, ok := tree.NodeByName(r[acc].S); ok && !r[acc].IsNull() {
			placedRows++
		}
		return true
	})
	if got := after["count_avg/"+root][0]; !strings.HasPrefix(got, canonRow(store.Row{store.IntValue(int64(placedRows))})) {
		t.Fatalf("the root clade counts %s, want the %d placed activities", got, placedRows)
	}
}
