package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"drugtree/internal/core"
	"drugtree/internal/mobile"
	"drugtree/internal/netsim"
	"drugtree/internal/query"
)

// The measurement clock is injectable (clockcheck forbids wall-clock
// reads in this package): under a netsim.VirtualClock every timing
// column must still be finite and well-formed.
func TestExperimentsRunUnderVirtualClock(t *testing.T) {
	restore := SetClock(netsim.NewVirtualClock())
	defer restore()
	rep, err := RunT4(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "NaN") || strings.Contains(cell, "Inf") {
				t.Fatalf("non-finite cell %q under virtual clock", cell)
			}
		}
	}
}

func TestSetClockRestores(t *testing.T) {
	v := netsim.NewVirtualClock()
	restore := SetClock(v)
	if clock != v {
		t.Fatal("SetClock did not install the new clock")
	}
	restore()
	if clock == v {
		t.Fatal("restore did not reinstate the previous clock")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID: "X", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
		Notes:  "note",
	}
	out := r.Render()
	if !strings.Contains(out, "=== X: demo ===") || !strings.Contains(out, "note") {
		t.Fatalf("render:\n%s", out)
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "a,b\n1,2\n") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestByID(t *testing.T) {
	for _, r := range All() {
		got, err := ByID(r.ID)
		if err != nil || got.ID != r.ID {
			t.Fatalf("ByID(%s): %v", r.ID, err)
		}
	}
	if _, err := ByID("T99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunT1(t *testing.T) {
	rep, err := RunT1(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("T1 rows = %d, want 5", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if _, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64); err != nil {
			t.Fatalf("bad speedup cell %q", row[3])
		}
	}
	// The headline expectation, on the work each side does rather than
	// on the wall clock the report prints (a few µs apart on the cheap
	// classes, so a loaded host can invert them): the optimized engine
	// examines fewer rows than the naive one in every class.
	ctx := context.Background()
	naive, opt, err := T1Engines(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range t1QueryClasses() {
		n, o := rowsExamined(t, naive, cls.mk(naive)), rowsExamined(t, opt, cls.mk(opt))
		t.Logf("%s: %d rows examined naive, %d optimized", cls.name, n, o)
		if o >= n {
			t.Errorf("class %q: the optimized engine examines %d rows, the naive one %d", cls.name, o, n)
		}
	}
}

// rowsExamined runs the statement once and returns the base-table rows
// it read, by scan or through an index.
func rowsExamined(t *testing.T, e *core.Engine, dtql string) int64 {
	t.Helper()
	res, err := e.QueryColumns(context.Background(), dtql)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.RowsScanned + res.Stats.RowsIndexed
}

func TestRunT2(t *testing.T) {
	rep, err := RunT2(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("T2 rows = %d, want 6", len(rep.Rows))
	}
	// Pushdown rows must move fewer bytes than their fetch-all twin.
	for i := 0; i < len(rep.Rows); i += 2 {
		all, _ := strconv.ParseInt(rep.Rows[i][4], 10, 64)
		push, _ := strconv.ParseInt(rep.Rows[i+1][4], 10, 64)
		if push >= all {
			t.Errorf("scenario %q: pushdown %d ≥ fetch-all %d bytes", rep.Rows[i][0], push, all)
		}
	}
}

func TestRunT3(t *testing.T) {
	rep, err := RunT3(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("T3 rows = %d", len(rep.Rows))
	}
	// Cost-based join work (rows joined) must not exceed syntactic.
	for _, row := range rep.Rows {
		parts := strings.Split(row[4], "/")
		syn, _ := strconv.ParseInt(parts[0], 10, 64)
		cb, _ := strconv.ParseInt(parts[1], 10, 64)
		if cb > syn {
			t.Errorf("%q: cost-based joined more rows (%d) than syntactic (%d)", row[0], cb, syn)
		}
	}
}

func TestRunT4(t *testing.T) {
	rep, err := RunT4(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("T4 rows = %d", len(rep.Rows))
	}
	// 0-edit accuracy must be ~100%; 1-edit ≥ 99%.
	acc0, _ := strconv.ParseFloat(strings.TrimSuffix(rep.Rows[0][4], "%"), 64)
	acc1, _ := strconv.ParseFloat(strings.TrimSuffix(rep.Rows[1][4], "%"), 64)
	if acc0 < 99.9 {
		t.Errorf("0-edit accuracy %.1f%%", acc0)
	}
	if acc1 < 99 {
		t.Errorf("1-edit accuracy %.1f%%", acc1)
	}
}

func TestRunT8(t *testing.T) {
	rep, err := RunT8(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("T8 rows = %d, want 2", len(rep.Rows))
	}
	avail := func(row []string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if err != nil {
			t.Fatalf("bad availability cell %q", row[1])
		}
		return v
	}
	wasted := func(row []string) int64 {
		v, err := strconv.ParseInt(row[5], 10, 64)
		if err != nil {
			t.Fatalf("bad wasted cell %q", row[5])
		}
		return v
	}
	res, naive := rep.Rows[0], rep.Rows[1]
	// The headline claim: resilience keeps ≥99% of rounds answered
	// through a 30%-of-wall-clock outage; the naive stack does not.
	if avail(res) < 99 {
		t.Errorf("resilient availability %.1f%% < 99%%", avail(res))
	}
	if avail(naive) >= avail(res) {
		t.Errorf("naive availability %.1f%% not below resilient %.1f%%", avail(naive), avail(res))
	}
	// The cost: some rounds served stale (degraded > 0).
	deg, _ := strconv.ParseFloat(strings.TrimSuffix(res[3], "%"), 64)
	if deg <= 0 {
		t.Error("resilient mode reported no degraded rounds under a 36s outage")
	}
	// Breaker + backoff must cut wasted traffic.
	if wasted(res) >= wasted(naive) {
		t.Errorf("resilient wasted %d ≥ naive %d", wasted(res), wasted(naive))
	}
	trips, _ := strconv.ParseInt(res[6], 10, 64)
	if trips == 0 {
		t.Error("breakers never tripped")
	}
}

func TestF1SmallScale(t *testing.T) {
	// Full F1 sweeps to 50k leaves; the test checks the property at
	// two sizes: the naive/optimized gap grows with tree size. The gap
	// is taken in rows examined, which the host's load cannot move; the
	// experiment's report prints the timing ratio.
	gap := func(n int) float64 {
		naive, err := F1Engine(n, 1, query.NaiveOptions())
		if err != nil {
			t.Fatal(err)
		}
		opt, err := F1Engine(n, 1, query.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		clade := f1PickClades(naive.Tree())[0]
		q := "SELECT pre FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '" + clade + "')"
		return float64(rowsExamined(t, naive, q)) / float64(rowsExamined(t, opt, q))
	}
	small := gap(200)
	large := gap(5000)
	t.Logf("naive/optimized rows examined: %.1fx at 200 leaves, %.1fx at 5000", small, large)
	if large <= small {
		t.Errorf("gap at 5000 leaves (%.1fx) not above 200 leaves (%.1fx)", large, small)
	}
	if large < 2 {
		t.Errorf("optimized engine examines only %.1fx fewer rows at 5000 leaves", large)
	}
}

func TestF2SmallScale(t *testing.T) {
	// 300-leaf, 60-step version of F2: semantic cache must hit more
	// than exact-only, which must hit ≥ no cache (0).
	hitRate := func(fc F2Config) float64 {
		e, err := F2Engine(300, 1, fc)
		if err != nil {
			t.Fatal(err)
		}
		trace := GenerateTrace(e.Tree(), 60, 2)
		_, hits, err := RunSession(context.Background(), e, trace, fc.Prefetch)
		if err != nil {
			t.Fatal(err)
		}
		return float64(hits) / 60
	}
	none := hitRate(F2Config{Name: "none"})
	exact := hitRate(F2Config{Name: "exact", Cache: true, ExactOnly: true})
	semantic := hitRate(F2Config{Name: "semantic", Cache: true})
	prefetch := hitRate(F2Config{Name: "prefetch", Cache: true, Prefetch: true})
	if none != 0 {
		t.Errorf("no-cache hit rate = %g", none)
	}
	if semantic <= exact {
		t.Errorf("semantic (%.2f) not above exact-only (%.2f)", semantic, exact)
	}
	if prefetch < semantic {
		t.Errorf("prefetch (%.2f) below semantic (%.2f)", prefetch, semantic)
	}
	if prefetch < 0.5 {
		t.Errorf("full stack hit rate only %.2f", prefetch)
	}
}

func TestF3SmallScale(t *testing.T) {
	e, err := F3Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	trace := GenerateTrace(e.Tree(), 10, 3)
	full, n, err := f3RunStrategy(context.Background(), e, mobile.StrategyFull, 0, trace)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetSession()
	lod, _, err := f3RunStrategy(context.Background(), e, mobile.StrategyLOD, 100, trace)
	if err != nil {
		t.Fatal(err)
	}
	e.ResetSession()
	delta, _, err := f3RunStrategy(context.Background(), e, mobile.StrategyLODDelta, 100, trace)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("interactions = %d", n)
	}
	if !(delta < lod && lod < full) {
		t.Fatalf("byte ordering wrong: delta=%d lod=%d full=%d", delta, lod, full)
	}
	if full < 10*lod {
		t.Errorf("LOD saved less than 10x on a 2000-leaf tree: full=%d lod=%d", full, lod)
	}
}

func TestF4SmallScale(t *testing.T) {
	// 500-leaf, short session: full stack must beat naive everything
	// on modelled 3G by a wide margin.
	fullCfg := F4Configs()[0]
	naiveCfg := F4Configs()[len(F4Configs())-1]
	fullHist, _, _, err := RunF4SessionSplit(context.Background(), 500, 1, fullCfg)
	if err != nil {
		t.Fatal(err)
	}
	naiveHist, _, _, err := RunF4SessionSplit(context.Background(), 500, 1, naiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	if naiveHist.Mean() < 2*fullHist.Mean() {
		t.Errorf("naive mean %v not ≥2x full-stack mean %v", naiveHist.Mean(), fullHist.Mean())
	}
	if fullHist.Count() != int64(F4Steps) {
		t.Errorf("histogram count = %d", fullHist.Count())
	}
}

func TestGenerateTraceProperties(t *testing.T) {
	e, err := F2Engine(200, 5, F2Config{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	trace := GenerateTrace(e.Tree(), 100, 7)
	if len(trace) != 100 {
		t.Fatalf("trace length = %d", len(trace))
	}
	// Deterministic.
	trace2 := GenerateTrace(e.Tree(), 100, 7)
	for i := range trace {
		if trace[i] != trace2[i] {
			t.Fatal("trace not deterministic")
		}
	}
	// All names resolve.
	for _, name := range trace {
		if _, err := e.NodeByName(name); err != nil {
			t.Fatalf("trace step %q does not resolve", name)
		}
	}
}

func TestRunT9(t *testing.T) {
	rep, err := RunT9(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 2 modes × 4 loads.
	if len(rep.Rows) != 8 {
		t.Fatalf("T9 rows = %d, want 8", len(rep.Rows))
	}
	goodput := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad goodput cell %q", row[3])
		}
		return v
	}
	// Row layout: unprotected 0..3, shed-fifo 4..7; loads 0.5/1/2/3
	// within each. The headline claim: at 3x
	// saturation the shedding limiter retains most of its peak goodput
	// while the unprotected queue collapses.
	un3x, fifo3x := rep.Rows[3], rep.Rows[7]
	if goodput(fifo3x) < 4*goodput(un3x) {
		t.Errorf("shedding goodput %.0f not well above unprotected %.0f at 3x",
			goodput(fifo3x), goodput(un3x))
	}
	if rep.Notes == "" {
		t.Error("T9 report has no notes")
	}
}
