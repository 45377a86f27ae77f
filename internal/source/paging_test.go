package source

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"drugtree/internal/netsim"
	"drugtree/internal/store"
)

// collectThenSliceFetch is bank.Fetch as it was before it built only the
// page it returns: it appends every matching row to a fresh slice and
// keeps one page of it. It is the oracle TestFetchPagesMatchCollectThenSlice
// holds the paging Fetch to.
func collectThenSliceFetch(b *bank, ctx context.Context, req Request) (*Result, error) {
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
		limit = b.pageSize
	}
	var matched []store.Row
	for _, r := range b.rows {
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
		out[i] = r.Clone()
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
			ctx := context.Background()
			for _, fs := range filterSets {
				fname, filters := fs.name, fs.filters
				res, err := collectThenSliceFetch(mk(), ctx, Request{Filters: filters})
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
						wantRes, wantErr := collectThenSliceFetch(want, ctx, req)
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

// TestUnfilteredPageIsPrivate: an unfiltered page is a window of the
// bank's rows copied into a slice of its own, so appending to a page or
// writing through its rows changes neither the bank's rows nor the page
// a later request returns.
func TestUnfilteredPageIsPrivate(t *testing.T) {
	ds := testDataset(t)
	b := NewActivityBank(ds, netsim.NewLink(netsim.ProfileLAN, 11, true)).(*bank)
	before := make([]store.Row, len(b.rows))
	for i, r := range b.rows {
		before[i] = r.Clone()
	}
	junk := store.Row{store.StringValue("junk"), store.StringValue("junk"), store.FloatValue(-1), store.StringValue("junk")}
	ctx := context.Background()
	for _, limit := range []int{1, 7, 0} {
		res, err := b.Fetch(ctx, Request{Offset: 3, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		grown := append(res.Rows, junk, junk)
		grown[0][0] = store.StringValue("overwritten")
		off := 3 + len(res.Rows)
		next, err := b.Fetch(ctx, Request{Offset: off, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if want := before[off : off+len(next.Rows)]; !reflect.DeepEqual(next.Rows, want) {
			t.Fatalf("limit %d: page at offset %d is %v after appending to the page before it, want %v", limit, off, next.Rows, want)
		}
	}
	if !reflect.DeepEqual(b.rows, before) {
		t.Fatal("appending to or writing through a page changed the bank's rows")
	}
}
