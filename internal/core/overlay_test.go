package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// overlayQuery is the canonical overlay-answerable shape.
func overlayQuery(node string) string {
	return "SELECT COUNT(*), COUNT(affinity), SUM(affinity), AVG(affinity) " +
		"FROM activities WHERE WITHIN_SUBTREE(protein_id, '" + node + "')"
}

// overlayPlan runs the query under EXPLAIN ANALYZE and returns the
// annotated plan (EXPLAIN ANALYZE drops the rows; values are checked
// with the plain statement).
func overlayPlan(t *testing.T, e *Engine, node string) string {
	t.Helper()
	res, err := e.Query(context.Background(), "EXPLAIN ANALYZE "+overlayQuery(node))
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

// TestOverlayReadAnswersSubtreeAggregate proves the optimizer serves
// the clade-activity aggregate from the overlay (OverlayRead in the
// plan) and that the answer agrees with the scan path.
func TestOverlayReadAnswersSubtreeAggregate(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	if e.Overlay() == nil {
		t.Fatal("engine built without an activity overlay")
	}
	ctx := context.Background()
	for _, node := range []string{e.Root().Name, "DT00000"} {
		if plan := overlayPlan(t, e, node); !strings.Contains(plan, "OverlayRead") {
			t.Fatalf("overlay rewrite did not fire for %s:\n%s", node, plan)
		}
		res, err := e.Query(ctx, overlayQuery(node))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("global aggregate returned %d rows", len(res.Rows))
		}

		// The scan path must agree. COUNTs are exact; SUM differs only
		// by accumulation order (the overlay sum is correctly rounded,
		// the scan sum is sequential float64), so compare within an ulp
		// margin.
		stmt, err := query.Parse(overlayQuery(node))
		if err != nil {
			t.Fatal(err)
		}
		e.catalog.OverlayAggs = nil
		scan, err := e.sql.Run(ctx, stmt)
		e.catalog.OverlayAggs = e.overlay
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(scan.Plan, "OverlayRead") {
			t.Fatalf("overlay fired with no overlay wired:\n%s", scan.Plan)
		}
		ov, sc := res.Rows[0], store.RowsFromColBatch(scan.Batch, scan.Dict)[0]
		if ov[0] != sc[0] || ov[1] != sc[1] {
			t.Fatalf("counts disagree at %s: overlay %v scan %v", node, ov, sc)
		}
		for i := 2; i < 4; i++ {
			a, b := ov[i].AsFloat(), sc[i].AsFloat()
			if diff := math.Abs(a - b); diff > 1e-9*math.Max(math.Abs(a), 1) {
				t.Fatalf("agg %d disagrees at %s: overlay %g scan %g", i, node, a, b)
			}
		}
	}
}

// TestOverlayRequiresMatchingVersion proves staleness safety: an
// overlay pinned at an older version than the statement's snapshot
// falls back to the scan rather than serving stale aggregates.
func TestOverlayRequiresMatchingVersion(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	root := e.Root().Name

	// Wire a frozen (non-subscribing) overlay pinned at the current
	// version, then advance the table: the version mismatch must
	// disable the rewrite.
	pre := e.db.PinSnapshot()
	frozen, err := RebuildActivityOverlay(pre, e.Tree())
	pre.Release()
	if err != nil {
		t.Fatal(err)
	}
	e.catalog.OverlayAggs = frozen
	if err := e.db.CommitDeltas([]store.TableDelta{{
		Table: integrate.TableActivities,
		Inserts: []store.Row{{
			store.StringValue("DT00000"), store.StringValue("L999"),
			store.FloatValue(5.5), store.StringValue("ic50"),
		}},
	}}); err != nil {
		t.Fatal(err)
	}
	if plan := overlayPlan(t, e, root); strings.Contains(plan, "OverlayRead") {
		t.Fatalf("stale overlay served a newer snapshot:\n%s", plan)
	}

	// The live overlay saw the commit synchronously and serves again.
	e.catalog.OverlayAggs = e.overlay
	if plan := overlayPlan(t, e, root); !strings.Contains(plan, "OverlayRead") {
		t.Fatalf("live overlay did not catch up:\n%s", plan)
	}
}

// TestOverlayIncrementalMatchesRebuild is the byte-identity property:
// after a churn of delta commits, the incrementally maintained overlay
// must equal a from-scratch rebuild bit for bit — same Rows, same
// Count, same Float64bits of every node's Sum. Two churns feed it: 20
// rounds that retire the oldest rows and insert affinities a hair
// apart, then 120 seeded batches of random deletes plus inserts at
// random leaves, one insert in 16 keyed to a protein outside the tree
// (which the overlay must ignore, as the scan path does), compared
// every 10 batches.
func TestOverlayIncrementalMatchesRebuild(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	db := e.DB()
	for round := 0; round < 20; round++ {
		var rows []store.Row
		for i := 0; i < 5; i++ {
			rows = append(rows, activityRow(fmt.Sprintf("DT000%d%d", round%10, i), float64(round)*0.1+float64(i)*1e-9))
		}
		commitActivities(t, db, activityIDs(t, db, 3, nil), rows)
	}
	overlayMatchesRebuild(t, db, e.Tree(), e.Overlay(), "after 20 rounds")

	rng := rand.New(rand.NewSource(1))
	leaves := e.Tree().LeafNames()
	for b := 1; b <= 120; b++ {
		ids := activityIDs(t, db, 0, nil)
		k := 3 + rng.Intn(5)
		var del []int64
		for i := 0; i < k && len(ids) > 0; i++ {
			j := rng.Intn(len(ids))
			del = append(del, ids[j])
			ids[j] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		rows := make([]store.Row, k)
		for i := range rows {
			key := leaves[rng.Intn(len(leaves))]
			if rng.Intn(16) == 0 {
				key = fmt.Sprintf("UNKNOWN-%d", b)
			}
			rows[i] = activityRow(key, rng.NormFloat64()*3.5)
		}
		commitActivities(t, db, del, rows)
		if b%10 == 0 {
			overlayMatchesRebuild(t, db, e.Tree(), e.Overlay(), fmt.Sprintf("after seeded batch %d", b))
		}
	}
}

// overlayMatchesRebuild fails the test unless o equals a from-scratch
// rebuild at db's current version, node for node and bit for bit.
func overlayMatchesRebuild(t *testing.T, db *store.DB, tree *phylo.Tree, o *ActivityOverlay, stage string) {
	t.Helper()
	snap := db.PinSnapshot()
	defer snap.Release()
	rebuilt, err := RebuildActivityOverlay(snap, tree)
	if err != nil {
		t.Fatal(err)
	}
	if o.Version() != rebuilt.Version() {
		t.Fatalf("%s: overlay at version %d, rebuild at %d", stage, o.Version(), rebuilt.Version())
	}
	for p := 0; p < o.Nodes(); p++ {
		a, b := o.Agg(p), rebuilt.Agg(p)
		if a.Rows != b.Rows || a.Count != b.Count || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
			t.Fatalf("%s: node pre=%d diverged: overlay %+v rebuild %+v", stage, p, a, b)
		}
	}
}

// activityRow is one activities row keyed at protein with the given
// affinity.
func activityRow(protein string, affinity float64) store.Row {
	return store.Row{store.StringValue(protein), store.StringValue("L1"), store.FloatValue(affinity), store.StringValue("kd")}
}

// commitActivities commits one activities delta or fails the test.
func commitActivities(t testing.TB, db *store.DB, deleteIDs []int64, inserts []store.Row) {
	t.Helper()
	if err := db.CommitDeltas([]store.TableDelta{{Table: integrate.TableActivities, DeleteIDs: deleteIDs, Inserts: inserts}}); err != nil {
		t.Fatal(err)
	}
}

// activityIDs returns the IDs of the first n live activities rows the
// match accepts (n ≤ 0 is all of them).
func activityIDs(t testing.TB, db *store.DB, n int, match func(store.Row) bool) []int64 {
	t.Helper()
	tab, err := db.Table(integrate.TableActivities)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	tab.Scan(func(id int64, r store.Row) bool {
		if match == nil || match(r) {
			ids = append(ids, id)
		}
		return n <= 0 || len(ids) < n
	})
	return ids
}

// TestOverlayNonFiniteMatchesScan commits affinities of +Inf, −Inf,
// both, and NaN: the commit must not panic inside its critical section,
// the overlay must answer COUNT/SUM/AVG exactly as the naive-options
// scan does, and once the rows are deleted again it must agree with the
// scan's finite sums.
func TestOverlayNonFiniteMatchesScan(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	db, ctx := e.DB(), context.Background()
	naive := query.NewEngine(query.NewDBCatalog(db, e.Tree()), query.NaiveOptions())
	inf := math.Inf(1)
	agree := func(stage, node string) {
		t.Helper()
		if plan := overlayPlan(t, e, node); !strings.Contains(plan, "OverlayRead") {
			t.Fatalf("%s: overlay did not serve %s:\n%s", stage, node, plan)
		}
		ov, err := e.Query(ctx, overlayQuery(node))
		if err != nil {
			t.Fatal(err)
		}
		stmt, err := query.Parse(overlayQuery(node))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := naive.Run(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		o, s := ov.Rows[0], store.RowsFromColBatch(sc.Batch, sc.Dict)[0]
		if o[0] != s[0] || o[1] != s[1] {
			t.Fatalf("%s at %s: counts disagree: overlay %v scan %v", stage, node, o, s)
		}
		for i := 2; i < 4; i++ {
			a, b := o[i].AsFloat(), s[i].AsFloat()
			finite := !math.IsNaN(a) && !math.IsInf(a, 0) && !math.IsNaN(b) && !math.IsInf(b, 0)
			if finite && math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), 1) || !finite && !sameSum(a, b) {
				t.Fatalf("%s at %s: agg %d disagrees: overlay %g scan %g", stage, node, i, a, b)
			}
		}
	}
	nonFinite := func(r store.Row) bool {
		return math.IsNaN(r[2].F) || math.IsInf(r[2].F, 0)
	}
	for _, vals := range [][]float64{{inf}, {-inf}, {inf, -inf}, {math.NaN()}} {
		var rows []store.Row
		for _, v := range vals {
			rows = append(rows, activityRow("DT00000", v))
		}
		commitActivities(t, db, nil, rows)
		for _, node := range []string{e.Root().Name, "DT00000"} {
			agree(fmt.Sprintf("%v inserted", vals), node)
		}
		commitActivities(t, db, activityIDs(t, db, 0, nonFinite), nil)
		for _, node := range []string{e.Root().Name, "DT00000"} {
			agree(fmt.Sprintf("%v deleted", vals), node)
		}
	}
}

// TestOverlayApplyAllocsFlat guards the allocation-free commit path:
// folding a commit's inserted and retired rows into a warm overlay
// allocates the same (zero) objects for 64 + 64 rows as for 512 + 512.
func TestOverlayApplyAllocsFlat(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	db := e.DB()
	fresh := randomActivities(e.Tree(), rand.New(rand.NewSource(1)))
	commitActivities(t, db, nil, fresh(1024))
	snap := db.PinSnapshot()
	probe, err := RebuildActivityOverlay(snap, e.Tree())
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	allocs := map[int]float64{}
	db.OnCommit(func(ev store.CommitEvent) {
		if ev.Table == integrate.TableActivities {
			allocs[ev.NumDeleted()] = testing.AllocsPerRun(10, func() { probe.onCommit(ev) })
		}
	})
	for _, n := range []int{64, 512} {
		commitActivities(t, db, activityIDs(t, db, n, nil), fresh(n))
	}
	t.Logf("objects allocated applying a commit: %v (by retired rows)", allocs)
	if allocs[64] != allocs[512] || allocs[512] > 0 {
		t.Fatalf("applying a commit allocates %v objects at 64+64 rows and %v at 512+512, want 0 for both", allocs[64], allocs[512])
	}
}

// TestOverlayPendingReplaysRetiredRows holds an overlay un-ready while
// a commit retires rows, lets GC hand those slots to later inserts, and
// only then replays: the buffered event must carry its own copies of
// the retired rows, so the overlay still equals a rebuild.
func TestOverlayPendingReplaysRetiredRows(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	db := e.DB()
	tab, err := db.Table(integrate.TableActivities)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOverlayShell(e.Tree(), tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	db.OnCommit(o.onCommit)
	base := db.PinSnapshot()
	retired := activityIDs(t, db, 20, nil)
	commitActivities(t, db, retired, []store.Row{activityRow("DT00001", 6.5)})
	ver, err := o.loadBase(base)
	base.Release() // no pin left: GC frees the retired slots
	if err != nil {
		t.Fatal(err)
	}
	var inserts []store.Row
	for i := range retired {
		inserts = append(inserts, activityRow("DT00002", 9+float64(i)))
	}
	commitActivities(t, db, nil, inserts)
	slots := map[uint32]bool{}
	for _, id := range retired {
		slots[uint32(id)] = true
	}
	reused := 0
	for _, id := range activityIDs(t, db, 0, nil) {
		if slots[uint32(id)] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no retired slot was reused before the replay; the test proves nothing")
	}
	o.publish(ver)
	overlayMatchesRebuild(t, db, e.Tree(), o, fmt.Sprintf("replayed after %d reused slots", reused))
}

// randomActivities returns a generator of activities rows keyed at
// random leaves of tree, with affinities in dataset D1's range (they
// span two or three binary exponents).
func randomActivities(tree *phylo.Tree, rng *rand.Rand) func(n int) []store.Row {
	leaves := tree.Leaves()
	return func(n int) []store.Row {
		rows := make([]store.Row, n)
		for i := range rows {
			rows[i] = store.Row{
				store.StringValue(tree.Node(leaves[rng.Intn(len(leaves))]).Name),
				store.StringValue(fmt.Sprintf("LIG%03d", rng.Intn(200))),
				store.FloatValue(4 + rng.Float64()*6 + rng.NormFloat64()*0.3),
				store.StringValue("ic50"),
			}
		}
		return rows
	}
}

// d1Activities returns an in-memory store holding an activities table
// shaped like dataset D1 — 48 000 rows over the 800 leaves of tree,
// integrate's three indexes — and the row generator that filled it.
func d1Activities(b *testing.B, tree *phylo.Tree, rng *rand.Rand) (*store.DB, func(n int) []store.Row) {
	b.Helper()
	db, err := store.Open("")
	if err != nil {
		b.Fatal(err)
	}
	tab, err := db.CreateTable(integrate.TableActivities, source.ActivitySchema)
	if err != nil {
		b.Fatal(err)
	}
	fresh := randomActivities(tree, rng)
	commitActivities(b, db, nil, fresh(48000))
	for col, typ := range map[string]store.IndexType{"protein_id": store.IndexHash, "ligand_id": store.IndexHash, "affinity": store.IndexBTree} {
		if err := tab.CreateIndex(col, typ); err != nil {
			b.Fatal(err)
		}
	}
	return db, fresh
}

// BenchmarkOverlayApply prices the overlay's share of an ingest commit:
// one 512 + 512-row delta on a D1-shaped activities table with the
// overlay hooked, minus the same delta on an identical table without
// it. overlay-ns/row is that difference per changed row; ns/op is the
// two commits together.
func BenchmarkOverlayApply(b *testing.B) {
	const batch = 512
	tree, err := datagen.RandomTopology(800, 1)
	if err != nil {
		b.Fatal(err)
	}
	hooked, freshHooked := d1Activities(b, tree, rand.New(rand.NewSource(1)))
	bare, freshBare := d1Activities(b, tree, rand.New(rand.NewSource(1)))
	if _, err := NewActivityOverlay(hooked, tree); err != nil {
		b.Fatal(err)
	}
	var with, without time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		delH, insH := activityIDs(b, hooked, batch, nil), freshHooked(batch)
		delB, insB := activityIDs(b, bare, batch, nil), freshBare(batch)
		b.StartTimer()
		t0 := time.Now()
		commitActivities(b, hooked, delH, insH)
		t1 := time.Now()
		commitActivities(b, bare, delB, insB)
		with, without = with+t1.Sub(t0), without+time.Since(t1)
	}
	b.ReportMetric(float64(with-without)/float64(b.N*2*batch), "overlay-ns/row")
}

// TestDuplicateNameAnswersOneWay: on ((A,B)X,((C,D)A,E)Y)R the name A is
// a leaf under X and a clade under Y, and Tree.NodeByName resolves it
// to the lower node ID, the leaf. A row keyed A therefore lies under R,
// X and the leaf A and never under Y, whichever path answers: the
// overlay, a rank range (a GROUP BY, which the overlay cannot serve) or
// a full scan with indexes off. For every named node COUNT and
// SUM agree across the three and with the counts worked out by hand.
func TestDuplicateNameAnswersOneWay(t *testing.T) {
	tree, err := phylo.ParseNewick("((A:1,B:1)X:1,((C:1,D:1)A:1,E:1)Y:1)R;")
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	act, err := db.CreateTable(integrate.TableActivities, source.ActivitySchema)
	if err != nil {
		t.Fatal(err)
	}
	for col, typ := range map[string]store.IndexType{"protein_id": store.IndexHash, "ligand_id": store.IndexHash, "affinity": store.IndexBTree} {
		if err := act.CreateIndex(col, typ); err != nil {
			t.Fatal(err)
		}
	}
	s, f := store.StringValue, store.FloatValue
	rows := []store.Row{{s("A"), s("L1"), f(7), s("Kd")}, {s("C"), s("L1"), f(5), s("Kd")}}
	// Rows keyed outside the tree count under no clade: the rank index
	// holds no posting for them.
	for i := 0; i < 48; i++ {
		rows = append(rows, store.Row{s("Z"), s("L2"), f(1), s("Kd")})
	}
	if err := db.CommitDeltas([]store.TableDelta{{Table: integrate.TableActivities, Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	indexed, err := NewWithTree(db, tree, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.QueryOptions.UseIndexes = false
	scanned, err := NewWithTree(db, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := tree.NodeByName("A"); !tree.Node(id).IsLeaf() {
		t.Fatalf("NodeByName(A) = node %d, an internal node: want the leaf, the lower ID", id)
	}

	type agg struct {
		n   int64
		sum float64
	}
	want := map[string]agg{"R": {2, 12}, "X": {1, 7}, "Y": {1, 5}, "A": {1, 7}, "B": {}, "C": {1, 5}, "D": {}, "E": {}}
	ctx := context.Background()
	read := func(e *Engine, path, q string) agg {
		t.Helper()
		plan, err := e.Query(ctx, "EXPLAIN "+q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.Plan, path) {
			t.Fatalf("plan of %s lacks %s:\n%s", q, path, plan.Plan)
		}
		res, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		var out agg
		for _, r := range res.Rows { // the GROUP BY form has one group, or none
			out.n += r[len(r)-2].I
			if v := r[len(r)-1]; !v.IsNull() {
				out.sum += v.AsFloat()
			}
		}
		return out
	}
	for node, w := range want {
		global := fmt.Sprintf("SELECT COUNT(*), SUM(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", node)
		grouped := fmt.Sprintf("SELECT assay, COUNT(*), SUM(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') GROUP BY assay", node)
		got := map[string]agg{
			"overlay":      read(indexed, "OverlayRead", global),
			"rank range":   read(indexed, "∈ subtree "+node+" → rank [", grouped),
			"scan":         read(scanned, "SeqScan", global),
			"grouped scan": read(scanned, "SeqScan", grouped),
		}
		for path, g := range got {
			if g != w {
				t.Errorf("clade %s: %s counts %d rows summing to %g, want %d summing to %g", node, path, g.n, g.sum, w.n, w.sum)
			}
		}
	}
}

// TestDuplicateNameOneLookup: on ((A,B)X,((C,D)A,E)Y)R tree_nodes' name
// probes come from the tree's own name index, which files both nodes
// named A: an equality on name returns both, in preorder, DistinctKeys
// counts A once, and a join on name equals a nested loop over the two
// tables' scans on the indexed engine and on one with indexes off,
// while NodeByName still resolves A to the lower ID, the leaf. Nine
// nodes are too few for the planner to probe tree_nodes by the join's
// keys, so the join runs again with forty leaves added under a new
// root, where it does (probe=keys).
func TestDuplicateNameOneLookup(t *testing.T) {
	const example = "((A:1,B:1)X:1,((C:1,D:1)A:1,E:1)Y:1)R"
	var padded strings.Builder
	padded.WriteString("(" + example)
	for i := range 40 {
		fmt.Fprintf(&padded, ",P%d:1", i)
	}
	padded.WriteString(")top;")
	s := store.StringValue
	var prots []store.Row
	for _, acc := range []string{"A", "C", "Y", "Z"} {
		prots = append(prots, store.Row{s(acc), s("p" + acc), s("f"), s("MK"), store.IntValue(2)})
	}
	const join = "SELECT t.pre, p.accession FROM tree_nodes t JOIN proteins p ON t.name = p.accession"
	ctx := context.Background()
	for _, c := range []struct {
		newick, joinPlan string
		first            int64 // pre of the leaf A
		distinct         int
	}{{example + ";", "build=right)", 2, 8}, {padded.String(), "probe=keys", 3, 49}} {
		tree, err := phylo.ParseNewick(c.newick)
		if err != nil {
			t.Fatal(err)
		}
		db, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := db.CreateTable(integrate.TableProteins, source.ProteinSchema); err != nil {
			t.Fatal(err)
		}
		if err := db.CommitDeltas([]store.TableDelta{{Table: integrate.TableProteins, Inserts: prots}}); err != nil {
			t.Fatal(err)
		}
		indexed, err := NewWithTree(db, tree, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.QueryOptions.UseIndexes = false
		scanned, err := NewWithTree(db, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if id, _ := tree.NodeByName("A"); int64(id) != c.first || !tree.Node(id).IsLeaf() {
			t.Fatalf("NodeByName(A) = %d, want %d, the leaf", id, c.first)
		}
		tab, err := db.Table(TreeTable)
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := tab.DistinctKeys("name"); !ok || n != c.distinct {
			t.Fatalf("DistinctKeys(name) = %d, %v; want %d, A counted once", n, ok, c.distinct)
		}
		// The reference: every (tree node, protein) pair whose name and
		// accession are equal, from the two tables' scans.
		var want []string
		tab.Scan(func(_ int64, node store.Row) bool {
			for _, p := range prots {
				if node[1].S == p[0].S {
					want = append(want, fmt.Sprintf("%d %s", node[0].I, p[0].S))
				}
			}
			return true
		})
		slices.Sort(want)
		plan, err := indexed.Query(ctx, "EXPLAIN "+join)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.Plan, c.joinPlan) {
			t.Fatalf("the join's plan lacks %s:\n%s", c.joinPlan, plan.Plan)
		}
		for name, e := range map[string]*Engine{"indexed": indexed, "scanned": scanned} {
			res, err := e.Query(ctx, "SELECT pre FROM tree_nodes WHERE name = 'A'")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 2 || res.Rows[0][0].I != c.first || res.Rows[1][0].I != c.first+3 {
				t.Fatalf("%s: name = 'A' reads %v, want pre %d and %d", name, res.Rows, c.first, c.first+3)
			}
			if res, err = e.Query(ctx, join); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range res.Rows {
				got = append(got, fmt.Sprintf("%d %s", r[0].I, r[1].S))
			}
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Fatalf("%s: the join on name reads %v, the reference %v", name, got, want)
			}
		}
	}
}
