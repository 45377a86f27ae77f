package store

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
	sel, examined, err := view.Select(ctx, a, nil)
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
	return RowsFromColBatch(cb, view.t.dict)
}

// viewImage copies every row the view holds, in storage order, through
// Scan: the image Select's reads are checked against.
func viewImage(view *TableView) []Row {
	var out []Row
	view.Scan(func(_ int64, r Row) bool {
		out = append(out, slices.Clone(r))
		return true
	})
	return out
}

// getRow returns a copy of the row with the given ID at the latest
// version, found by a Scan.
func getRow(tb *Table, id int64) (Row, bool) {
	var out Row
	tb.Scan(func(rid int64, r Row) bool {
		if rid == id {
			out = slices.Clone(r)
		}
		return out == nil
	})
	return out, out != nil
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
	r, ok := getRow(tb, id)
	if !ok || r[0].S != "P001" {
		t.Fatalf("row %d = %v, %v", id, r, ok)
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
	if _, ok := getRow(tb, id); ok {
		t.Fatal("deleted row still visible")
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
	if _, ok := getRow(tb, id); ok {
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

// TestSelectRefusesUnservedAccess: a read on a column goes through the
// column's index or not at all. On a stored and on a frozen table,
// Select refuses a probe on a column without an index, a range on a
// hash-indexed one and any access on an unknown column, with an error
// naming the table and the column.
func TestSelectRefusesUnservedAccess(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stored, err := db.CreateTable("stored", treeShapedSchema)
	if err != nil {
		t.Fatal(err)
	}
	rows := frozenTreeRows(50, 0)
	if err := db.CommitDeltas([]TableDelta{{Table: "stored", Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	if err := stored.CreateIndex("pre", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if err := stored.CreateIndex("name", IndexHash); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PublishFrozen("frozen", treeShapedSchema, imageOf(rows)); err != nil {
		t.Fatal(err)
	}
	snap := db.PinSnapshot()
	defer snap.Release()
	lo := IntValue(3)
	for _, table := range []string{"stored", "frozen"} {
		view, err := snap.View(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []Access{
			equalTo("depth", IntValue(2)),
			{Column: "depth", Lo: &lo},
			{Column: "name", Lo: &lo},
			{Column: "name", Desc: true, Limit: 1},
			equalTo("nope", IntValue(0)),
		} {
			for _, accept := range []bool{false, true} {
				if accept {
					a.Accept = func(*Selection) (int, error) { return 0, nil }
				}
				sel, _, err := view.Select(context.Background(), a, nil)
				if err == nil || !strings.Contains(err.Error(), table) || !strings.Contains(err.Error(), a.Column) {
					t.Fatalf("%s: Select %+v = %v, want an error naming the table and column %s", table, a, err, a.Column)
				}
				if len(sel.Slots) != 0 {
					t.Fatalf("%s: a refused Select %+v selected %d rows", table, a, len(sel.Slots))
				}
			}
		}
		for _, a := range []Access{{}, equalTo("name", StringValue("N3")), equalTo("pre", IntValue(3)), {Column: "pre", Lo: &lo}} {
			if _, _, err := view.Select(context.Background(), a, nil); err != nil {
				t.Fatalf("%s: Select %+v: %v", table, a, err)
			}
		}
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
	// Without the index the same range lookup is refused.
	tb2 := NewTable("p2", proteinSchema(t))
	for i := 0; i < 100; i++ {
		insertRow(tb2, Row{StringValue(fmt.Sprintf("P%d", i)), StringValue("F"), IntValue(int64(i)), BoolValue(false)})
	}
	view, release := pinView(tb2)
	defer release()
	if _, _, err := view.Select(context.Background(), Access{Column: "length", Lo: &lo, Hi: &hi}, nil); err == nil {
		t.Fatal("an unindexed range lookup was served")
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

// TestDistinctKeysMatchesModel drives a table with a B+-tree over INT
// and over FLOAT and a hash index over STRING through seeded inserts
// (NULLs and duplicate keys mixed in) and deletes, some of them under a
// pinned snapshot, and after every batch compares DistinctKeys per
// column with a brute-force count of the distinct non-NULL cells of the
// rows that still hold postings: the live rows and, until the pin is
// released and GC sweeps them, the rows retired under it.
func TestDistinctKeysMatchesModel(t *testing.T) {
	schema := MustSchema(
		Column{Name: "i", Kind: KindInt},
		Column{Name: "s", Kind: KindString},
		Column{Name: "f", Kind: KindFloat},
		Column{Name: "plain", Kind: KindInt},
	)
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for col, typ := range map[string]IndexType{"i": IndexBTree, "s": IndexHash, "f": IndexBTree} {
		if err := tb.CreateIndex(col, typ); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	cell := func(k Kind, spread int) Value {
		n := rng.Intn(spread)
		switch {
		case rng.Intn(6) == 0:
			return NullValue()
		case k == KindInt:
			return IntValue(int64(n))
		case k == KindFloat:
			return FloatValue(float64(n)/2 + 0.25)
		}
		return StringValue(fmt.Sprintf("k%d", n))
	}
	live := map[int64]Row{}
	var retired []Row // deleted under the pin: GC keeps them until it goes
	check := func(stage string) {
		t.Helper()
		if got := tb.DeadVersions(); got != len(retired) {
			t.Fatalf("%s: %d rows await GC, model %d", stage, got, len(retired))
		}
		for c, col := range schema.Columns {
			seen := map[Value]bool{}
			for _, r := range live {
				seen[r[c]] = true
			}
			for _, r := range retired {
				seen[r[c]] = true
			}
			delete(seen, NullValue())
			n, ok := tb.DistinctKeys(col.Name)
			if want := col.Name != "plain"; ok != want || ok && n != len(seen) {
				t.Fatalf("%s: DistinctKeys(%s) = %d, %v; model %d distinct, indexed %v", stage, col.Name, n, ok, len(seen), want)
			}
		}
	}
	check("empty")
	for round := 0; round < 60; round++ {
		spread := 4 + round*8 // duplicate-heavy first, then wide
		var snap *SnapshotHandle
		if round%3 == 1 {
			snap = db.PinSnapshot()
		}
		for op := 0; op < 40; op++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				r := Row{cell(KindInt, spread), cell(KindString, spread), cell(KindFloat, spread), IntValue(int64(op))}
				id, err := db.Insert("t", r)
				if err != nil {
					t.Fatal(err)
				}
				live[id] = r
				continue
			}
			for id, r := range live {
				if ok, err := db.Delete("t", id); !ok || err != nil {
					t.Fatalf("delete %d: %v, %v", id, ok, err)
				}
				delete(live, id)
				if snap != nil {
					retired = append(retired, r)
				}
				break
			}
		}
		check(fmt.Sprintf("round %d", round))
		if snap != nil {
			snap.Release()
			retired = nil
			check(fmt.Sprintf("round %d after GC", round))
		}
	}
	// Drain: every key leaves the indexes.
	for id := range live {
		db.Delete("t", id)
		delete(live, id)
	}
	check("drained")

	// A frozen image: every dense key is one slot's, and the hash
	// column's distinct names are counted once at publish, a republish
	// included.
	for _, dup := range []int{0, 97, 1} {
		rows := frozenTreeRows(500, dup)
		frozen, err := db.PublishFrozen("frozen", treeShapedSchema, imageOf(rows))
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, r := range rows {
			names[r[1].S] = true
		}
		for col, want := range map[string]int{"pre": len(rows), "name": len(names), "depth": -1} {
			n, ok := frozen.DistinctKeys(col)
			if ok != (want >= 0) || ok && n != want {
				t.Fatalf("frozen, %d-name cycle: DistinctKeys(%s) = %d, %v; want %d", dup, col, n, ok, want)
			}
		}
	}
}
