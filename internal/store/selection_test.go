package store

import (
	"context"
	"fmt"
	"sort"
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
	// against the pinned image as Scan copied it under the lock before
	// any commit: every visible row in storage order, the order a full
	// pass selects in, and those rows' i in [100, n], descending, as
	// (s, i).
	image := viewImage(view)
	var ranged []Row
	for _, r := range image {
		if r[0].I >= 100 && r[0].I <= n {
			ranged = append(ranged, Row{r[2], r[0]})
		}
	}
	sort.Slice(ranged, func(a, b int) bool { return ranged[a][1].I > ranged[b][1].I })
	wants := []*ColBatch{
		ColBatchFromRows([]Kind{KindInt, KindFloat, KindString}, image),
		ColBatchFromRows([]Kind{KindString, KindInt}, ranged),
	}
	lo, hi := IntValue(100), IntValue(n)
	var sels []*Selection
	for i, a := range []Access{{}, {Column: "i", Lo: &lo, Hi: &hi, Desc: true, Cols: []int{2, 0}}} {
		sel, _, err := view.Select(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Slots) != wants[i].Rows {
			t.Fatalf("selected %d rows, the pinned image has %d", len(sel.Slots), wants[i].Rows)
		}
		sels = append(sels, sel)
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

// TestSelectNeedsPin: Select reads only through a view that a
// SnapshotHandle pinned. A table created after the pin has no view in
// the handle to select through, a view keeps selecting its pinned rows
// after later commits while a fresh pin selects them all, and once the
// handle is released no version stays pinned.
func TestSelectNeedsPin(t *testing.T) {
	db, tb := openAccessDB(t)
	rows := func(from, to int) []Row {
		var out []Row
		for i := from; i < to; i++ {
			out = append(out, Row{FloatValue(float64(i)), StringValue(fmt.Sprintf("g%d", i%3)), IntValue(int64(i))})
		}
		return out
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: rows(0, 10)}}); err != nil {
		t.Fatal(err)
	}
	snap := db.PinSnapshot()
	defer snap.Release()
	if _, err := db.CreateTable("late", accessSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.View("late"); err == nil || err.Error() != `store: no table "late" in snapshot` {
		t.Fatalf("a table created after the pin: err = %v, want the snapshot's", err)
	}
	if _, ok := snap.Version("late"); ok {
		t.Fatal("a table created after the pin has a pinned version")
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: rows(10, 15)}}); err != nil {
		t.Fatal(err)
	}
	view, err := snap.View("t")
	if err != nil {
		t.Fatal(err)
	}
	cb, _, err := selectAll(context.Background(), view, Access{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(RowsFromColBatch(cb, db.dict)), fmt.Sprint(rows(0, 10)); got != want {
		t.Fatalf("the pinned view selected\n%s\nwant\n%s", got, want)
	}
	if got, want := fmt.Sprint(readRows(t, tb, Access{})), fmt.Sprint(rows(0, 15)); got != want {
		t.Fatalf("a fresh pin selected\n%s\nwant\n%s", got, want)
	}
	if db.PinnedVersions() == 0 {
		t.Fatal("a held snapshot pins no version")
	}
	snap.Release()
	if n := db.PinnedVersions(); n != 0 {
		t.Fatalf("%d versions still pinned after the release", n)
	}
}

// TestFillWhileDictionaryGrows is the same check for a coded column,
// whose strings live in the DB's dictionary: a reader fills a pinned
// selection of one table's coded column, and a Scan of it, while a
// committer on another table codes thousands of new names into the
// shared dictionary — growing its names array and its table many times
// over — and, now and then, the read table's own rows, reallocating its
// code vector. Every cell must read the pinned image's string.
func TestFillWhileDictionaryGrows(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := MustSchema(Column{Name: "name", Kind: KindString}, Column{Name: "n", Kind: KindInt})
	var tabs [2]*Table
	for i, name := range []string{"read", "grow"} {
		if tabs[i], err = db.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
		if err := tabs[i].CreateIndex("name", IndexHash); err != nil {
			t.Fatal(err)
		}
	}
	const n = 500
	rows := make([]Row, n)
	for k := range rows {
		rows[k] = Row{StringValue(fmt.Sprintf("read-%d", k%97)), IntValue(int64(k))}
		if k%11 == 0 {
			rows[k][0] = NullValue()
		}
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "read", Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	snap := db.PinSnapshot()
	defer snap.Release()
	view, err := snap.View("read")
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := view.Select(context.Background(), Access{Cols: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	start, done := make(chan struct{}), make(chan error, 1)
	go func() {
		<-start
		for b := 0; b < 40; b++ {
			batch := make([]Row, 100)
			for k := range batch {
				batch[k] = Row{StringValue(fmt.Sprintf("grow-%d-%d", b, k)), IntValue(int64(k))}
			}
			deltas := []TableDelta{{Table: "grow", Inserts: batch}}
			if b%8 == 0 { // the read table's own code vector grows too
				more := make([]Row, 2*n)
				for k := range more {
					more[k] = Row{StringValue(fmt.Sprintf("later-%d", k%7)), IntValue(int64(n + k))}
				}
				deltas = append(deltas, TableDelta{Table: "read", Inserts: more})
			}
			if err := db.CommitDeltas(deltas); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	close(start)
	var batch ColBatch
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		sel.Fill(&batch, 0, len(sel.Slots))
		for k, r := range RowsFromColBatch(&batch, db.dict) {
			if want := rows[r[1].I][0]; r[0].K != want.K || r[0].S != want.S {
				t.Fatalf("cell %d reads %v, pinned %v", k, r[0], want)
			}
		}
		view.Scan(func(_ int64, r Row) bool {
			if want := rows[r[1].I][0]; r[0].K != want.K || r[0].S != want.S {
				t.Fatalf("scan reads %v, pinned %v", r[0], want)
			}
			return true
		})
	}
	if got := db.dict.n; got < 4000 {
		t.Fatalf("the dictionary holds %d codes, want the grown table's 4 000 and more", got)
	}
}
