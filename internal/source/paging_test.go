package source

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"drugtree/internal/bio/seq"
	"drugtree/internal/datagen"
	"drugtree/internal/netsim"
	"drugtree/internal/store"
)

// collectThenSliceFetch is bank.Fetch as it was before it built only the
// page it returns: it appends every matching row of rows, the bank's
// records as the test's own loop over the dataset converts them
// (recordRows), to a fresh slice and keeps one page of it. It is the
// oracle TestFetchPagesMatchCollectThenSlice holds the paging Fetch to.
func collectThenSliceFetch(b *bank, rows []store.Row, ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, f := range req.Filters {
		ci := b.schema.ColumnIndex(f.Column)
		if ci < 0 {
			return nil, fmt.Errorf("source %s: no column %q", b.name, f.Column)
		}
		if !b.CanFilter(f.Column, f.Op) {
			return nil, fmt.Errorf("source %s: cannot evaluate %v server-side", b.name, f)
		}
	}
	if req.Offset < 0 {
		return nil, fmt.Errorf("source %s: negative offset", b.name)
	}
	now := b.Clock().Now()
	b.mu.Lock()
	fail := false
	slow := 1.0
	if w := b.plan.active(now); w != nil {
		switch w.Mode {
		case FaultOutage:
			fail = true
		case FaultErrorBurst:
			fail = b.planRng.Float64() < w.ErrorPct
		case FaultBrownout:
			if w.SlowFactor > 1 {
				slow = w.SlowFactor
			}
		}
	}
	if !fail && b.failPct > 0 && b.failRng.Float64() < b.failPct {
		fail = true
	}
	b.mu.Unlock()
	if fail {
		elapsed := b.link.RequestCost(requestOverheadBytes, responseOverheadBytes)
		b.mu.Lock()
		b.stats.Requests++
		b.stats.Failures++
		b.stats.BytesUp += requestOverheadBytes
		b.stats.BytesDown += responseOverheadBytes
		b.stats.Elapsed += elapsed
		b.mu.Unlock()
		return nil, fmt.Errorf("source %s: %w", b.name, ErrTransient)
	}
	limit := req.Limit
	if limit <= 0 {
		limit = defaultPageSize
	}
	var matched []store.Row
	for _, r := range rows {
		ok := true
		for _, f := range req.Filters {
			ci := b.schema.ColumnIndex(f.Column)
			if !f.Op.Eval(r[ci], f.Value) {
				ok = false
				break
			}
		}
		if ok {
			matched = append(matched, r)
		}
	}
	total := len(matched)
	start := req.Offset
	if start > total {
		start = total
	}
	end := start + limit
	if end > total {
		end = total
	}
	page := matched[start:end]
	respBytes := int64(responseOverheadBytes)
	for _, r := range page {
		respBytes += int64(store.EncodedRowSize(r))
	}
	reqBytes := int64(requestOverheadBytes + 24*len(req.Filters))
	elapsed := b.link.RequestCost(reqBytes, respBytes)
	if slow > 1 {
		penalty := time.Duration(float64(elapsed) * (slow - 1))
		b.link.Advance(penalty)
		elapsed += penalty
	}
	b.mu.Lock()
	b.stats.Requests++
	b.stats.RowsMoved += int64(len(page))
	b.stats.BytesUp += reqBytes
	b.stats.BytesDown += respBytes
	b.stats.Elapsed += elapsed
	b.mu.Unlock()
	out := make([]store.Row, len(page))
	for i, r := range page {
		out[i] = slices.Clone(r)
	}
	return &Result{Rows: out, Total: total, BytesOnWire: respBytes, Elapsed: elapsed}, nil
}

// TestFetchPagesMatchCollectThenSlice walks two identical activity banks
// through the same requests, one with Fetch and one with the
// collect-then-slice oracle: every offset in [0, total+limit] at limits
// 1, 7 and the default page, under zero, one and two filters, with no
// faults, a failure rate, and an outage, error-burst and brownout
// window. Every page, Total, BytesOnWire, Elapsed, error and the
// running Stats must be equal.
func TestFetchPagesMatchCollectThenSlice(t *testing.T) {
	ds := testDataset(t)
	protein, ligand := ds.Activities[0].ProteinID, ds.Activities[0].LigandID
	filterSets := []struct {
		name    string
		filters []Filter
	}{
		{"none", nil},
		{"ligand", []Filter{{Column: "ligand_id", Op: OpEQ, Value: store.StringValue(ligand)}}},
		{"protein+affinity", []Filter{
			{Column: "protein_id", Op: OpEQ, Value: store.StringValue(protein)},
			{Column: "affinity", Op: OpGE, Value: store.FloatValue(6)},
		}},
	}
	always := func(w FaultWindow) *FaultPlan {
		w.Start, w.End = 0, 1000*time.Hour
		return &FaultPlan{Seed: 3, Windows: []FaultWindow{w}}
	}
	modes := []struct {
		name    string
		failPct float64
		plan    *FaultPlan
	}{
		{"healthy", 0, nil},
		{"failure-rate", 0.3, nil},
		{"outage", 0, always(FaultWindow{Mode: FaultOutage})},
		{"error-burst", 0, always(FaultWindow{Mode: FaultErrorBurst, ErrorPct: 0.5})},
		{"brownout", 0, always(FaultWindow{Mode: FaultBrownout, SlowFactor: 4})},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			mk := func() *bank {
				b := NewActivityBank(ds, netsim.NewLink(netsim.ProfileLAN, 11, true)).(*bank)
				b.SetFailureRate(mode.failPct)
				b.SetFaultPlan(mode.plan)
				return b
			}
			got, want := mk(), mk()
			rows := recordRows(ds)["ActivityBank"]
			ctx := context.Background()
			for _, fs := range filterSets {
				fname, filters := fs.name, fs.filters
				res, err := collectThenSliceFetch(mk(), rows, ctx, Request{Filters: filters})
				if mode.name == "healthy" && (err != nil || res.Total == 0) {
					t.Fatalf("%s: %v rows match (err %v); the filter set tests nothing", fname, res, err)
				}
				total := len(ds.Activities)
				if err == nil {
					total = res.Total
				}
				for _, limit := range []int{1, 7, 0} {
					span := limit
					if span == 0 {
						span = defaultPageSize
					}
					for off := 0; off <= total+span; off++ {
						req := Request{Filters: filters, Offset: off, Limit: limit}
						gotRes, gotErr := got.Fetch(ctx, req)
						wantRes, wantErr := collectThenSliceFetch(want, rows, ctx, req)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s limit %d offset %d: error %v, oracle %v", fname, limit, off, gotErr, wantErr)
						}
						if !reflect.DeepEqual(gotRes, wantRes) {
							t.Fatalf("%s limit %d offset %d: result %+v, oracle %+v", fname, limit, off, gotRes, wantRes)
						}
						if g, w := got.Stats(), want.Stats(); g != w {
							t.Fatalf("%s limit %d offset %d: stats %+v, oracle %+v", fname, limit, off, g, w)
						}
					}
				}
			}
		})
	}
}

// recordRows converts the dataset's records to each bank's rows, keyed
// by bank name, with a plain loop of the test's own: the rows a bank
// must serve, in record order.
func recordRows(ds *datagen.Dataset) map[string][]store.Row {
	out := map[string][]store.Row{}
	for _, p := range ds.Proteins {
		out["ProteinBank"] = append(out["ProteinBank"], store.Row{
			store.StringValue(p.ID), store.StringValue(p.Name), store.StringValue(p.Family),
			store.StringValue(p.Residues), store.IntValue(int64(len(p.Residues))),
		})
	}
	for _, l := range ds.Ligands {
		out["LigandBank"] = append(out["LigandBank"], store.Row{
			store.StringValue(l.ID), store.StringValue(l.Name), store.StringValue(l.SMILES),
			store.FloatValue(l.Weight), store.StringValue(l.Formula),
		})
	}
	for _, a := range ds.Activities {
		out["ActivityBank"] = append(out["ActivityBank"], store.Row{
			store.StringValue(a.ProteinID), store.StringValue(a.LigandID),
			store.FloatValue(a.Affinity), store.StringValue(a.Assay),
		})
	}
	for _, n := range ds.Annotations {
		out["AnnotationBank"] = append(out["AnnotationBank"], store.Row{
			store.StringValue(n.ProteinID), store.StringValue(n.Organism),
			store.StringValue(n.EC), store.StringValue(n.Keywords),
		})
	}
	return out
}

// TestUnfilteredPageIsPrivate: an unfiltered page is built fresh for
// the request, so appending to a page or writing through its rows
// changes neither the dataset the bank reads nor the page a later
// request returns.
func TestUnfilteredPageIsPrivate(t *testing.T) {
	ds := testDataset(t)
	b := NewActivityBank(ds, netsim.NewLink(netsim.ProfileLAN, 11, true)).(*bank)
	before := recordRows(ds)["ActivityBank"]
	junk := store.Row{store.StringValue("junk"), store.StringValue("junk"), store.FloatValue(-1), store.StringValue("junk")}
	ctx := context.Background()
	for _, limit := range []int{1, 7, 0} {
		res, err := b.Fetch(ctx, Request{Offset: 3, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		grown := append(res.Rows, junk, junk)
		grown[0][0] = store.StringValue("overwritten")
		grown[0] = append(grown[0], junk...)
		if want := before[4 : 3+len(res.Rows)]; !reflect.DeepEqual(res.Rows[1:], want) {
			t.Fatalf("limit %d: appending to the page's first row changed the rows after it: %v, want %v", limit, res.Rows[1:], want)
		}
		off := 3 + len(res.Rows)
		next, err := b.Fetch(ctx, Request{Offset: off, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if want := before[off : off+len(next.Rows)]; !reflect.DeepEqual(next.Rows, want) {
			t.Fatalf("limit %d: page at offset %d is %v after appending to the page before it, want %v", limit, off, next.Rows, want)
		}
		again, err := b.Fetch(ctx, Request{Offset: 3, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if want := before[3 : 3+len(again.Rows)]; !reflect.DeepEqual(again.Rows, want) {
			t.Fatalf("limit %d: page at offset 3 is %v after writing through it, want %v", limit, again.Rows, want)
		}
	}
	if !reflect.DeepEqual(recordRows(ds)["ActivityBank"], before) {
		t.Fatal("appending to or writing through a page changed the dataset's records")
	}
}

// TestFilteredFetchMatchesDataset holds every server-side capability of
// every bank to a plain loop over the dataset: for each (column, op) a
// bank allows, at a constant taken from its first, middle and last
// record, the rows paged out and Total equal the records whose cell
// compares as op says, in record order.
func TestFilteredFetchMatchesDataset(t *testing.T) {
	ds := testDataset(t)
	want := recordRows(ds)
	holds := map[FilterOp]func(c int) bool{
		OpEQ: func(c int) bool { return c == 0 },
		OpLT: func(c int) bool { return c < 0 },
		OpLE: func(c int) bool { return c <= 0 },
		OpGT: func(c int) bool { return c > 0 },
		OpGE: func(c int) bool { return c >= 0 },
	}
	ctx := context.Background()
	for _, src := range NewBundle(ds, netsim.ProfileLAN, 7, true).All() {
		b := src.(*bank)
		records := want[b.name]
		if len(records) == 0 {
			t.Fatalf("%s: the dataset has no records for it", b.name)
		}
		caps := 0
		for _, col := range b.schema.Columns {
			ci := b.schema.ColumnIndex(col.Name)
			for op, ok := range holds {
				if !b.CanFilter(col.Name, op) {
					continue
				}
				caps++
				for _, at := range []int{0, len(records) / 2, len(records) - 1} {
					c := records[at][ci]
					var match []store.Row
					for _, r := range records {
						if ok(store.Compare(r[ci], c)) {
							match = append(match, r)
						}
					}
					f := Filter{Column: col.Name, Op: op, Value: c}
					var got []store.Row
					for off := 0; ; off += 7 {
						res, err := b.Fetch(ctx, Request{Filters: []Filter{f}, Offset: off, Limit: 7})
						if err != nil {
							t.Fatal(err)
						}
						if res.Total != len(match) {
							t.Fatalf("%s %v at offset %d: Total %d, the dataset holds %d", b.name, f, off, res.Total, len(match))
						}
						if got = append(got, res.Rows...); len(res.Rows) < 7 {
							break
						}
					}
					if !reflect.DeepEqual(got, match) && len(got)+len(match) > 0 {
						t.Fatalf("%s %v: fetched %d rows %v, the dataset holds %d %v", b.name, f, len(got), got, len(match), match)
					}
				}
			}
		}
		if caps != len(b.caps) {
			t.Fatalf("%s: tested %d capabilities of %d", b.name, caps, len(b.caps))
		}
	}
}

// TestNewBundleCopiesNoRecords: a bundle holds no per-record state, so
// building one over a dataset of D1's size (800 proteins, 200 ligands,
// 48 538 activities) allocates exactly as many objects as over the
// small test dataset.
func TestNewBundleCopiesNoRecords(t *testing.T) {
	small := testDataset(t)
	big := &datagen.Dataset{
		Proteins:    make([]*seq.Protein, 800),
		Ligands:     make([]datagen.Ligand, 200),
		Activities:  make([]datagen.Activity, 48538),
		Annotations: make([]datagen.Annotation, 800),
	}
	for i := range big.Proteins {
		big.Proteins[i] = small.Proteins[i%len(small.Proteins)]
	}
	allocs := func(ds *datagen.Dataset) float64 {
		return testing.AllocsPerRun(5, func() { NewBundle(ds, netsim.ProfileLAN, 7, true) })
	}
	if s, d := allocs(small), allocs(big); s != d {
		t.Fatalf("NewBundle allocates %.0f objects over %d activities and %.0f over %d: it copies records", s, len(small.Activities), d, len(big.Activities))
	}
}
