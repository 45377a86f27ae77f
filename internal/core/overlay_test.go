package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
		ov, sc := res.Rows[0], scan.Rows[0]
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

// TestOverlayIncrementalMatchesRebuild is the byte-identity property
// T14 gates on: after a churn of delta commits, the incrementally
// maintained overlay must equal a from-scratch rebuild bit for bit —
// same Rows, same Count, same Float64bits of every node's Sum.
func TestOverlayIncrementalMatchesRebuild(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	db := e.DB()

	// Churn: rounds of deletes (oldest surviving ids) plus inserts,
	// committed as atomic deltas so the overlay advances one version
	// per round.
	for round := 0; round < 20; round++ {
		var ids []int64
		snap := db.PinSnapshot()
		tv, err := snap.View(integrate.TableActivities)
		if err != nil {
			t.Fatal(err)
		}
		tv.Scan(func(id int64, r store.Row) bool {
			ids = append(ids, id)
			return len(ids) < 3
		})
		snap.Release()
		delta := store.TableDelta{Table: integrate.TableActivities, DeleteIDs: ids}
		for i := 0; i < 5; i++ {
			delta.Inserts = append(delta.Inserts, store.Row{
				store.StringValue("DT000" + string(rune('0'+round%10)) + string(rune('0'+i))),
				store.StringValue("L1"),
				store.FloatValue(float64(round)*0.1 + float64(i)*1e-9),
				store.StringValue("kd"),
			})
		}
		if err := db.CommitDeltas([]store.TableDelta{delta}); err != nil {
			t.Fatal(err)
		}
	}

	snap := db.PinSnapshot()
	defer snap.Release()
	rebuilt, err := RebuildActivityOverlay(snap, e.Tree())
	if err != nil {
		t.Fatal(err)
	}
	live := e.Overlay()
	if lv, rv := live.Version(), rebuilt.Version(); lv != rv {
		t.Fatalf("live overlay at version %d, rebuild at %d", lv, rv)
	}
	if live.Nodes() != rebuilt.Nodes() {
		t.Fatalf("node counts differ: %d vs %d", live.Nodes(), rebuilt.Nodes())
	}
	for p := 0; p < live.Nodes(); p++ {
		a, b := live.Agg(p), rebuilt.Agg(p)
		if a.Rows != b.Rows || a.Count != b.Count ||
			math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
			t.Fatalf("node pre=%d diverged: incremental %+v rebuild %+v", p, a, b)
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
		o, s := ov.Rows[0], sc.Rows[0]
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

	snap := db.PinSnapshot()
	defer snap.Release()
	rebuilt, err := RebuildActivityOverlay(snap, e.Tree())
	if err != nil {
		t.Fatal(err)
	}
	if o.Version() != rebuilt.Version() {
		t.Fatalf("replayed overlay at version %d, rebuild at %d", o.Version(), rebuilt.Version())
	}
	for p := 0; p < o.Nodes(); p++ {
		a, b := o.Agg(p), rebuilt.Agg(p)
		if a.Rows != b.Rows || a.Count != b.Count || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
			t.Fatalf("node pre=%d diverged after %d reused slots: replayed %+v rebuild %+v", p, reused, a, b)
		}
	}
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
