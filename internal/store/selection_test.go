package store

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestSelectionFillUnderPin is the pin-safety check of the Select/Fill
// contract, meant for the race detector: a reader pins, selects, and
// fills its selection outside the lock while a committer retires every
// selected row, releases an older snapshot so GC frees and reuses the
// slots that snapshot kept, and inserts enough rows — NULLs among them,
// where the column held none — to reallocate every storage vector.
// Every filled cell must equal the pinned image.
func TestSelectionFillUnderPin(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	schema := MustSchema(
		Column{Name: "i", Kind: KindInt},
		Column{Name: "f", Kind: KindFloat},
		Column{Name: "s", Kind: KindString},
	)
	tb, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("i", IndexBTree); err != nil {
		t.Fatal(err)
	}
	row := func(n int) Row {
		return Row{IntValue(int64(n)), FloatValue(float64(n) / 4), StringValue(fmt.Sprintf("r%d", n))}
	}
	const n = 2000
	var first []Row
	for k := 0; k < n; k++ {
		first = append(first, row(k))
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: first}}); err != nil {
		t.Fatal(err)
	}
	ids := func() []int64 {
		var out []int64
		tb.Scan(func(id int64, _ Row) bool { out = append(out, id); return true })
		return out
	}
	// The older snapshot keeps the first quarter alive past its delete.
	older := db.PinSnapshot()
	defer older.Release()
	if err := db.CommitDeltas([]TableDelta{{Table: "t", DeleteIDs: ids()[:n/4]}}); err != nil {
		t.Fatal(err)
	}
	snap := db.PinSnapshot()
	defer snap.Release()
	view, err := snap.View("t")
	if err != nil {
		t.Fatal(err)
	}
	// A full pass and a projected descending range walk, each checked
	// against what Gather copied under the lock before any commit.
	lo, hi := IntValue(100), IntValue(n)
	var sels []*Selection
	var wants []*ColBatch
	for _, a := range []Access{{}, {Column: "i", Lo: &lo, Hi: &hi, Desc: true, Cols: []int{2, 0}}} {
		want, _, err := view.Gather(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		sel, _, err := view.Select(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Slots) != want.Rows {
			t.Fatalf("selected %d rows, gathered %d", len(sel.Slots), want.Rows)
		}
		sels, wants = append(sels, sel), append(wants, want)
	}
	fills := func() error {
		var buf ColBatch
		for i, sel := range sels {
			for lo := 0; lo < len(sel.Slots); lo += 64 {
				sel.Fill(&buf, lo, min(lo+64, len(sel.Slots)))
				for c := range buf.Cols {
					for k := 0; k < buf.Rows; k++ {
						if got, w := buf.Cols[c].Value(k), wants[i].Cols[c].Value(lo+k); got.K != w.K || !Equal(got, w) {
							return fmt.Errorf("access %d row %d column %d: filled %v, pinned image has %v", i, lo+k, c, got, w)
						}
					}
				}
			}
		}
		return nil
	}
	capBefore := cap(tb.cols[0].Int)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for round := 0; round < 8 && errs[0] == nil; round++ {
			errs[0] = fills()
		}
	}()
	go func() {
		defer wg.Done()
		// Retire every row the reader selected.
		if errs[1] = db.CommitDeltas([]TableDelta{{Table: "t", DeleteIDs: ids()}}); errs[1] != nil {
			return
		}
		older.Release() // the next commit's GC frees the first quarter's slots
		for k := 1; k <= 8 && errs[1] == nil; k++ {
			var ins []Row
			for m := 0; m < n/2; m++ {
				r := row(-k*n - m)
				if m%7 == 0 {
					r[1] = NullValue()
				}
				ins = append(ins, r)
			}
			errs[1] = db.CommitDeltas([]TableDelta{{Table: "t", Inserts: ins}})
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := fills(); err != nil {
		t.Fatalf("after the commits: %v", err)
	}
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	if cap(tb.cols[0].Int) <= capBefore {
		t.Fatalf("vector capacity %d → %d: the inserts never reallocated storage", capBefore, cap(tb.cols[0].Int))
	}
	if len(tb.free) != 0 || len(tb.dying) != n*3/4 {
		t.Fatalf("free list %d, dying %d: want the freed first quarter reused and the selected rows held by the pin", len(tb.free), len(tb.dying))
	}
}

// TestSelectNeedsPin pins the contract's guard: an unpinned view, whose
// rows GC may free at the next commit, cannot select.
func TestSelectNeedsPin(t *testing.T) {
	_, tb := openAccessDB(t)
	if _, _, err := tb.LatestView().Select(context.Background(), Access{}); err == nil {
		t.Fatal("an unpinned view selected")
	}
}
