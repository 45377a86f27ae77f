package source

import (
	"context"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/netsim"
	"drugtree/internal/store"
)

func testDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NumFamilies = 3
	cfg.ProteinsPerFamily = 10
	cfg.NumLigands = 20
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testBundle(t *testing.T) *Bundle {
	t.Helper()
	return NewBundle(testDataset(t), netsim.ProfileLAN, 7, true)
}

func TestFilterOpEval(t *testing.T) {
	five, seven := store.IntValue(5), store.IntValue(7)
	cases := []struct {
		op   FilterOp
		a, b store.Value
		want bool
	}{
		{OpEQ, five, five, true},
		{OpEQ, five, seven, false},
		{OpLT, five, seven, true},
		{OpLE, five, five, true},
		{OpGT, seven, five, true},
		{OpGE, five, seven, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
	// NULL never matches.
	if OpEQ.Eval(store.NullValue(), five) || OpLT.Eval(five, store.NullValue()) {
		t.Error("NULL matched a filter")
	}
}

func TestFetchAllRows(t *testing.T) {
	b := testBundle(t)
	rows, err := FetchAll(context.Background(), b.Proteins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("fetched %d proteins, want 30", len(rows))
	}
}

func TestFetchServerSideFilter(t *testing.T) {
	b := testBundle(t)
	rows, err := FetchAll(context.Background(), b.Proteins, []Filter{
		{Column: "family", Op: OpEQ, Value: store.StringValue("FAM01")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("FAM01 fetch = %d rows, want 10", len(rows))
	}
	famIdx := ProteinSchema.ColumnIndex("family")
	for _, r := range rows {
		if r[famIdx].S != "FAM01" {
			t.Fatalf("filter leak: got family %q", r[famIdx].S)
		}
	}
}

func TestFetchRejectsUnsupportedFilter(t *testing.T) {
	b := testBundle(t)
	// AnnotationBank cannot filter keywords server-side.
	_, err := b.Annotations.Fetch(context.Background(), Request{Filters: []Filter{
		{Column: "keywords", Op: OpEQ, Value: store.StringValue("kinase")},
	}})
	if err == nil {
		t.Fatal("unsupported filter accepted")
	}
	// Unknown column.
	_, err = b.Proteins.Fetch(context.Background(), Request{Filters: []Filter{
		{Column: "nope", Op: OpEQ, Value: store.IntValue(0)},
	}})
	if err == nil {
		t.Fatal("unknown column accepted")
	}
	// Negative offset.
	if _, err := b.Proteins.Fetch(context.Background(), Request{Offset: -1}); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestFetchPagination(t *testing.T) {
	b := testBundle(t)
	res, err := b.Proteins.Fetch(context.Background(), Request{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 || res.Total != 30 {
		t.Fatalf("page = %d rows, total = %d", len(res.Rows), res.Total)
	}
	res2, err := b.Proteins.Fetch(context.Background(), Request{Offset: 28, Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 2 {
		t.Fatalf("last page = %d rows, want 2", len(res2.Rows))
	}
	// Offset beyond total yields an empty page.
	res3, err := b.Proteins.Fetch(context.Background(), Request{Offset: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Rows) != 0 {
		t.Fatalf("overflow page = %d rows", len(res3.Rows))
	}
}

func TestRangeFilterOnAffinity(t *testing.T) {
	b := testBundle(t)
	rows, err := FetchAll(context.Background(), b.Activities, []Filter{
		{Column: "affinity", Op: OpGE, Value: store.FloatValue(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	affIdx := ActivitySchema.ColumnIndex("affinity")
	for _, r := range rows {
		if r[affIdx].F < 8 {
			t.Fatalf("range filter leak: affinity %g", r[affIdx].F)
		}
	}
	all, _ := FetchAll(context.Background(), b.Activities, nil)
	if len(rows) >= len(all) {
		t.Fatalf("filter did not reduce: %d vs %d", len(rows), len(all))
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	b := testBundle(t)
	FetchAll(context.Background(), b.Proteins, nil)
	st := b.Proteins.Stats()
	if st.Requests == 0 || st.BytesDown == 0 || st.RowsMoved != 30 {
		t.Fatalf("stats not accumulated: %+v", st)
	}
	total := b.TotalStats()
	if total.Requests != st.Requests {
		t.Fatalf("bundle total mismatch: %+v vs %+v", total, st)
	}
	b.ResetStats()
	if st := b.Proteins.Stats(); st.Requests != 0 {
		t.Fatalf("reset incomplete: %+v", st)
	}
}

func TestPushdownMovesFewerBytes(t *testing.T) {
	// The core T2 property: filtering server-side moves ~selectivity
	// × bytes of fetch-all.
	ds := testDataset(t)
	b1 := NewBundle(ds, netsim.ProfileLAN, 7, true)
	b2 := NewBundle(ds, netsim.ProfileLAN, 7, true)

	// Pushdown: only FAM01 rows move.
	FetchAll(context.Background(), b1.Proteins, []Filter{{Column: "family", Op: OpEQ, Value: store.StringValue("FAM01")}})
	pushBytes := b1.Proteins.Stats().BytesDown

	// No pushdown: everything moves.
	FetchAll(context.Background(), b2.Proteins, nil)
	allBytes := b2.Proteins.Stats().BytesDown

	if pushBytes*2 >= allBytes {
		t.Fatalf("pushdown moved %d bytes vs %d without: expected ≥2x reduction", pushBytes, allBytes)
	}
}

func TestSlowLinkChargesMoreTime(t *testing.T) {
	ds := testDataset(t)
	fast := NewBundle(ds, netsim.ProfileLAN, 7, true)
	slow := NewBundle(ds, netsim.Profile3G, 7, true)
	FetchAll(context.Background(), fast.Proteins, nil)
	FetchAll(context.Background(), slow.Proteins, nil)
	if slow.Proteins.Stats().Elapsed <= fast.Proteins.Stats().Elapsed {
		t.Fatalf("3G (%v) not slower than LAN (%v)",
			slow.Proteins.Stats().Elapsed, fast.Proteins.Stats().Elapsed)
	}
}

func TestFetchReturnsClones(t *testing.T) {
	b := testBundle(t)
	res, err := b.Ligands.Fetch(context.Background(), Request{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	res.Rows[0][0] = store.StringValue("MUTATED")
	res2, _ := b.Ligands.Fetch(context.Background(), Request{Limit: 1})
	if res2.Rows[0][0].S == "MUTATED" {
		t.Fatal("Fetch leaked internal rows")
	}
}

func TestTransientFailureInjection(t *testing.T) {
	ds := testDataset(t)
	b := NewProteinBank(ds, netsim.NewLink(netsim.ProfileLAN, 1, true))
	b.SetFailureRate(1.0)
	if _, err := b.Fetch(context.Background(), Request{}); err == nil {
		t.Fatal("100% failure rate served a page")
	}
	st := b.Stats()
	if st.Failures != 1 || st.Requests != 1 {
		t.Fatalf("failure accounting: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Fatal("failed request charged no network time")
	}
}

func TestFetchAllRetriesTransientFailures(t *testing.T) {
	ds := testDataset(t)
	b := NewProteinBank(ds, netsim.NewLink(netsim.ProfileLAN, 1, true))
	b.SetFailureRate(0.3)
	// A single FetchAll is one page here; drive enough rounds that
	// failures certainly occur and every round still succeeds.
	for round := 0; round < 20; round++ {
		rows, err := FetchAll(context.Background(), b, nil)
		if err != nil {
			t.Fatalf("FetchAll round %d under 30%% failures: %v", round, err)
		}
		if len(rows) != 30 {
			t.Fatalf("round %d rows = %d, want 30", round, len(rows))
		}
	}
	if b.Stats().Failures == 0 {
		t.Fatal("no failures injected across 20 rounds at 30%")
	}
}

func TestFetchAllGivesUpOnPersistentFailure(t *testing.T) {
	ds := testDataset(t)
	b := NewProteinBank(ds, netsim.NewLink(netsim.ProfileLAN, 1, true))
	b.SetFailureRate(1.0)
	if _, err := FetchAll(context.Background(), b, nil); err == nil {
		t.Fatal("persistent failure did not surface")
	}
}

func TestImportSurvivesFlakySources(t *testing.T) {
	// The integration path end-to-end under 20% transient failures.
	ds := testDataset(t)
	bundle := NewBundle(ds, netsim.ProfileLAN, 9, true)
	for _, s := range bundle.All() {
		s.SetFailureRate(0.2)
	}
	rows, err := FetchAll(context.Background(), bundle.Activities, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no activities fetched")
	}
}
