package store

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// pinView pins the table's latest commit version, as DB.PinSnapshot
// pins each of its tables', and returns the view and the release of the
// pin: the read path of a table outside a database.
func pinView(tb *Table) (*TableView, func()) {
	view := tb.pin()
	return view, func() { tb.unpin(view.ver) }
}

// dbOf wraps a table built outside a database in an in-memory one
// holding only it, so tests write it through CommitDeltas like any
// other.
func dbOf(tb *Table) *DB { return &DB{tables: map[string]*Table{tb.name: tb}} }

// insertRow commits r to tb as a one-row delta and returns its ID.
func insertRow(tb *Table, r Row) (int64, error) { return dbOf(tb).Insert(tb.name, r) }

// deleteRow retires the row with the given ID as a one-row delta,
// reporting whether tb held it live.
func deleteRow(tb *Table, id int64) bool {
	ok, err := dbOf(tb).Delete(tb.name, id)
	return ok && err == nil
}

// selectAll runs the access on view through Select and fills every row
// it selected into one exactly sized batch, as a streaming scan does. On
// an error the batch holds the rows selected before it.
func selectAll(ctx context.Context, view *TableView, a Access) (*ColBatch, int, error) {
	sel, examined, err := view.Select(ctx, a)
	cb := &ColBatch{}
	sel.Fill(cb, 0, len(sel.Slots))
	return cb, examined, err
}

// readRows runs the access at a fresh pin of the latest version through
// Select and Fill, the one read primitive.
func readRows(t testing.TB, tb *Table, a Access) []Row {
	t.Helper()
	view, release := pinView(tb)
	defer release()
	cb, _, err := selectAll(context.Background(), view, a)
	if err != nil {
		t.Fatal(err)
	}
	return RowsFromColBatch(cb)
}

func equalTo(column string, v Value) Access { return Access{Column: column, Keys: []Value{v}} }

func proteinSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{"accession", KindString},
		Column{"family", KindString},
		Column{"length", KindInt},
		Column{"reviewed", KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{"a", KindInt}, Column{"a", KindString}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema(Column{"", KindInt}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema(Column{"a", KindNull}); err == nil {
		t.Error("NULL-typed column accepted")
	}
	s := MustSchema(Column{"a", KindInt}, Column{"b", KindString})
	if s.ColumnIndex("b") != 1 || s.ColumnIndex("z") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if s.String() != "a INT, b STRING" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSchemaCheckRow(t *testing.T) {
	s := MustSchema(Column{"a", KindInt}, Column{"b", KindString})
	if err := s.CheckRow(Row{IntValue(1), StringValue("x")}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.CheckRow(Row{IntValue(1), NullValue()}); err != nil {
		t.Errorf("NULL cell rejected: %v", err)
	}
	if err := s.CheckRow(Row{IntValue(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := s.CheckRow(Row{StringValue("x"), StringValue("y")}); err == nil {
		t.Error("wrong kind accepted")
	}
}

func TestTableInsertGetDelete(t *testing.T) {
	tb := NewTable("proteins", proteinSchema(t))
	id, err := insertRow(tb, Row{StringValue("P001"), StringValue("FAM1"), IntValue(300), BoolValue(true)})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := tb.Get(id)
	if !ok || r[0].S != "P001" {
		t.Fatalf("Get(%d) = %v, %v", id, r, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if !deleteRow(tb, id) {
		t.Fatal("delete failed")
	}
	if deleteRow(tb, id) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := tb.Get(id); ok {
		t.Fatal("deleted row still visible")
	}
}

func TestTableGetReturnsCopy(t *testing.T) {
	tb := NewTable("p", proteinSchema(t))
	id, _ := insertRow(tb, Row{StringValue("P1"), StringValue("F"), IntValue(1), BoolValue(false)})
	r, _ := tb.Get(id)
	r[2] = IntValue(999)
	r2, _ := tb.Get(id)
	if r2[2].I != 1 {
		t.Fatal("Get leaked internal storage")
	}
}

func TestTableReplace(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("p", proteinSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	tb.CreateIndex("family", IndexHash)
	id, _ := db.Insert("p", Row{StringValue("P1"), StringValue("F1"), IntValue(1), BoolValue(false)})
	v := tb.Version()
	if err := replaceRow(db, "p", id, Row{StringValue("P1"), StringValue("F2"), IntValue(2), BoolValue(true)}); err != nil {
		t.Fatal(err)
	}
	if tb.Version() != v+1 || tb.Len() != 1 {
		t.Fatalf("replace took version %d → %d, %d rows: want one commit, one row", v, tb.Version(), tb.Len())
	}
	if rows := readRows(t, tb, equalTo("family", StringValue("F2"))); len(rows) != 1 || rows[0][2].I != 2 {
		t.Fatalf("index not updated: %v", rows)
	}
	if rows := readRows(t, tb, equalTo("family", StringValue("F1"))); len(rows) != 0 {
		t.Fatalf("stale index entry: %v", rows)
	}
	if _, ok := tb.Get(id); ok {
		t.Fatal("the replaced row's ID still resolves")
	}
	if err := replaceRow(db, "p", 9999, Row{StringValue("x"), StringValue("y"), IntValue(0), BoolValue(false)}); err == nil {
		t.Fatal("replace of a missing row accepted")
	}
	if tb.Len() != 1 || tb.Version() != v+1 {
		t.Fatal("a rejected replace left its insert behind")
	}
}

func TestTableIndexLookup(t *testing.T) {
	for _, typ := range []IndexType{IndexHash, IndexBTree} {
		t.Run(typ.String(), func(t *testing.T) {
			tb := NewTable("p", proteinSchema(t))
			if err := tb.CreateIndex("family", typ); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				fam := fmt.Sprintf("FAM%d", i%10)
				insertRow(tb, Row{StringValue(fmt.Sprintf("P%03d", i)), StringValue(fam), IntValue(int64(i)), BoolValue(i%2 == 0)})
			}
			rows := readRows(t, tb, equalTo("family", StringValue("FAM3")))
			if len(rows) != 10 {
				t.Fatalf("FAM3 lookup = %d rows, want 10", len(rows))
			}
			for _, r := range rows {
				if r[1].S != "FAM3" {
					t.Fatalf("lookup returned family %q", r[1].S)
				}
			}
			// Missing value.
			if rows := readRows(t, tb, equalTo("family", StringValue("NOPE"))); len(rows) != 0 {
				t.Fatalf("missing value returned %d rows", len(rows))
			}
		})
	}
}

func TestTableLookupWithoutIndexFallsBack(t *testing.T) {
	tb := NewTable("p", proteinSchema(t))
	for i := 0; i < 20; i++ {
		insertRow(tb, Row{StringValue(fmt.Sprintf("P%d", i)), StringValue("F"), IntValue(int64(i)), BoolValue(false)})
	}
	if rows := readRows(t, tb, equalTo("length", IntValue(7))); len(rows) != 1 || rows[0][0].S != "P7" {
		t.Fatalf("scan lookup = %v", rows)
	}
	view, release := pinView(tb)
	defer release()
	if _, _, err := view.Select(context.Background(), equalTo("nope", IntValue(0))); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestTableRangeLookup(t *testing.T) {
	tb := NewTable("p", proteinSchema(t))
	tb.CreateIndex("length", IndexBTree)
	for i := 0; i < 100; i++ {
		insertRow(tb, Row{StringValue(fmt.Sprintf("P%d", i)), StringValue("F"), IntValue(int64(i)), BoolValue(false)})
	}
	lo, hi := IntValue(10), IntValue(20)
	rows := readRows(t, tb, Access{Column: "length", Lo: &lo, Hi: &hi})
	if len(rows) != 11 {
		t.Fatalf("range lookup = %d rows, want 11", len(rows))
	}
	for i, r := range rows {
		if r[2].I != int64(10+i) {
			t.Fatalf("range lookup row %d has length %d: want key order", i, r[2].I)
		}
	}
	// Unindexed range lookup gives the same answer.
	tb2 := NewTable("p2", proteinSchema(t))
	for i := 0; i < 100; i++ {
		insertRow(tb2, Row{StringValue(fmt.Sprintf("P%d", i)), StringValue("F"), IntValue(int64(i)), BoolValue(false)})
	}
	if rows := readRows(t, tb2, Access{Column: "length", Lo: &lo, Hi: &hi}); len(rows) != 11 {
		t.Fatalf("scan range lookup = %d rows, want 11", len(rows))
	}
}

func TestCreateIndexBackfillsAndValidates(t *testing.T) {
	tb := NewTable("p", proteinSchema(t))
	for i := 0; i < 50; i++ {
		insertRow(tb, Row{StringValue(fmt.Sprintf("P%d", i)), StringValue("F"), IntValue(int64(i % 5)), BoolValue(false)})
	}
	if err := tb.CreateIndex("length", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if rows := readRows(t, tb, equalTo("length", IntValue(3))); len(rows) != 10 {
		t.Fatalf("backfilled index lookup = %d rows, want 10", len(rows))
	}
	if err := tb.CreateIndex("length", IndexBTree); err != nil {
		t.Fatalf("idempotent re-create failed: %v", err)
	}
	if err := tb.CreateIndex("length", IndexHash); err == nil {
		t.Fatal("conflicting index type accepted")
	}
	if err := tb.CreateIndex("missing", IndexHash); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if typ, ok := tb.HasIndex("length"); !ok || typ != IndexBTree {
		t.Fatalf("HasIndex = %v, %v", typ, ok)
	}
}

func TestTableVersionBumps(t *testing.T) {
	tb := NewTable("p", proteinSchema(t))
	v0 := tb.Version()
	id, _ := insertRow(tb, Row{StringValue("P"), StringValue("F"), IntValue(1), BoolValue(false)})
	if tb.Version() == v0 {
		t.Fatal("insert did not bump version")
	}
	v1 := tb.Version()
	deleteRow(tb, id)
	if tb.Version() == v1 {
		t.Fatal("delete did not bump version")
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tb := NewTable("p", proteinSchema(t))
	tb.CreateIndex("family", IndexHash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				insertRow(tb, Row{
					StringValue(fmt.Sprintf("P%d-%d", g, i)),
					StringValue(fmt.Sprintf("FAM%d", i%4)),
					IntValue(int64(i)), BoolValue(false),
				})
				if i%10 == 0 {
					view, release := pinView(tb)
					selectAll(context.Background(), view, equalTo("family", StringValue("FAM1")))
					release()
					tb.Scan(func(int64, Row) bool { return false })
				}
			}
		}(g)
	}
	wg.Wait()
	if tb.Len() != 1600 {
		t.Fatalf("Len = %d, want 1600", tb.Len())
	}
}

func TestTableScanEarlyStop(t *testing.T) {
	tb := NewTable("p", proteinSchema(t))
	for i := 0; i < 10; i++ {
		insertRow(tb, Row{StringValue(fmt.Sprintf("P%d", i)), StringValue("F"), IntValue(int64(i)), BoolValue(false)})
	}
	count := 0
	tb.Scan(func(int64, Row) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("scan visited %d rows after early stop", count)
	}
}

func TestStatsBasics(t *testing.T) {
	tb := NewTable("p", proteinSchema(t))
	for i := 0; i < 100; i++ {
		fam := fmt.Sprintf("FAM%d", i%5)
		insertRow(tb, Row{StringValue(fmt.Sprintf("P%d", i)), StringValue(fam), IntValue(int64(i)), BoolValue(i%2 == 0)})
	}
	insertRow(tb, Row{StringValue("PX"), NullValue(), NullValue(), NullValue()})
	st := tb.Stats()
	if st.Rows != 101 {
		t.Fatalf("Rows = %d", st.Rows)
	}
	fam := st.Column("family")
	if fam.NDV != 5 || fam.NonNull != 100 {
		t.Fatalf("family stats: ndv=%d nonNull=%d", fam.NDV, fam.NonNull)
	}
	length := st.Column("length")
	if length.Min.I != 0 || length.Max.I != 99 {
		t.Fatalf("length range = [%v,%v]", length.Min, length.Max)
	}
	if length.Hist == nil {
		t.Fatal("numeric column has no histogram")
	}
	var total int64
	for _, c := range length.Hist {
		total += c
	}
	if total != 100 {
		t.Fatalf("histogram total = %d, want 100", total)
	}
	if st.Column("nope") != nil {
		t.Fatal("missing column returned stats")
	}
	if st.String() == "" {
		t.Fatal("empty stats dump")
	}
}

func TestStatsSelectivity(t *testing.T) {
	tb := NewTable("p", proteinSchema(t))
	for i := 0; i < 1000; i++ {
		insertRow(tb, Row{StringValue(fmt.Sprintf("P%d", i)), StringValue(fmt.Sprintf("FAM%d", i%10)), IntValue(int64(i)), BoolValue(false)})
	}
	st := tb.Stats()
	if sel := st.SelectivityEqual("family"); sel < 0.05 || sel > 0.2 {
		t.Fatalf("equality selectivity = %g, want ≈0.1", sel)
	}
	lo, hi := IntValue(0), IntValue(99)
	if sel := st.SelectivityRange("length", &lo, &hi); sel < 0.05 || sel > 0.15 {
		t.Fatalf("range selectivity = %g, want ≈0.1", sel)
	}
	// Degenerate range.
	hi2 := IntValue(-5)
	if sel := st.SelectivityRange("length", &lo, &hi2); sel != 0 {
		t.Fatalf("empty range selectivity = %g", sel)
	}
	// Unknown column gets a default.
	if sel := st.SelectivityEqual("nope"); sel != 0.1 {
		t.Fatalf("default selectivity = %g", sel)
	}
}
