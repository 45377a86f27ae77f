package store

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// frozenTreeRows returns n tree_nodes-shaped rows in preorder whose
// names repeat every dup rows (dup ≤ 0: all distinct).
func frozenTreeRows(n, dup int) []Row {
	rows := treeShapedRows(0, n)
	for p, r := range rows {
		if dup > 0 {
			r[1] = StringValue(fmt.Sprintf("N%d", p%dup))
		}
	}
	return rows
}

// imageOf transposes rows into a frozen image of treeShapedSchema, with
// pre dense and name hashed.
func imageOf(rows []Row) FrozenImage {
	cols := make([]Col, treeShapedSchema.Len())
	for c, col := range treeShapedSchema.Columns {
		cols[c].Kind = col.Kind
		for _, r := range rows {
			switch col.Kind {
			case KindInt, KindBool:
				cols[c].Int = append(cols[c].Int, r[c].I)
			case KindFloat:
				cols[c].Float = append(cols[c].Float, r[c].F)
			default:
				cols[c].Str = append(cols[c].Str, r[c].S)
			}
		}
	}
	return FrozenImage{Cols: cols, Dense: "pre", Hash: "name"}
}

// frozenAndStored loads the same rows into a frozen table and into a
// stored one indexed as the engine indexed tree_nodes: a B+-tree on pre
// and a hash index on name.
func frozenAndStored(t *testing.T, rows []Row) (frozen, stored *Table) {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if frozen, err = db.PublishFrozen("frozen", treeShapedSchema, imageOf(rows)); err != nil {
		t.Fatal(err)
	}
	if stored, err = db.CreateTable("stored", treeShapedSchema); err != nil {
		t.Fatal(err)
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "stored", Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	if err := stored.CreateIndex("pre", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if err := stored.CreateIndex("name", IndexHash); err != nil {
		t.Fatal(err)
	}
	return frozen, stored
}

// TestFrozenMatchesStored: every read of a frozen table — Scan,
// Snapshot, index introspection, DistinctKeys, CountPostings and Select on pre
// ranges and keys and name keys, with Limit and a residual — answers
// exactly as a stored table loaded with the same rows does, on a tree
// whose names repeat; an access no index serves (a name range, any read
// by depth) fails on both.
func TestFrozenMatchesStored(t *testing.T) {
	const n = 3000
	frozen, stored := frozenAndStored(t, frozenTreeRows(n, 97))
	dump := func(tb *Table) (out []string) {
		tb.Scan(func(id int64, r Row) bool {
			out = append(out, fmt.Sprintf("%d:%x", id, AppendRow(nil, r)))
			return true
		})
		return out
	}
	if err := sameStrings("Scan", dump(frozen), dump(stored)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frozen.Snapshot(), stored.Snapshot()) {
		t.Fatal("Snapshot differs")
	}
	if !reflect.DeepEqual(frozen.Indexes(), stored.Indexes()) {
		t.Fatalf("Indexes = %v, stored %v", frozen.Indexes(), stored.Indexes())
	}
	for _, col := range []string{"pre", "name", "depth", "nope"} {
		ft, fok := frozen.HasIndex(col)
		st, sok := stored.HasIndex(col)
		if ft != st || fok != sok {
			t.Fatalf("HasIndex(%s) = %v, %v; stored %v, %v", col, ft, fok, st, sok)
		}
		fn, fok := frozen.DistinctKeys(col)
		sn, sok := stored.DistinctKeys(col)
		if fn != sn || fok != sok {
			t.Fatalf("DistinctKeys(%s) = %d, %v; stored %d, %v", col, fn, fok, sn, sok)
		}
	}

	val := func(v Value) *Value { return &v }
	keep := func(r Row) (bool, error) { return r[3].I%3 != 0, nil }
	var accesses []Access
	for _, b := range []struct{ lo, hi *Value }{
		{nil, nil}, {val(IntValue(40)), val(IntValue(1200))}, {val(IntValue(-5)), val(IntValue(3))},
		{val(IntValue(n - 3)), nil}, {nil, val(IntValue(-1))}, {val(IntValue(9)), val(IntValue(2))},
		{val(FloatValue(10.5)), val(FloatValue(20.5))}, {val(FloatValue(math.NaN())), val(FloatValue(7))},
		{val(FloatValue(math.Inf(-1))), val(FloatValue(1e300))}, {val(StringValue("a")), nil},
		{val(NullValue()), val(IntValue(4))}, {val(BoolValue(true)), nil},
	} {
		for _, desc := range []bool{false, true} {
			accesses = append(accesses, Access{Column: "pre", Lo: b.lo, Hi: b.hi, Desc: desc})
		}
		accesses = append(accesses, Access{Column: "depth", Lo: b.lo, Hi: b.hi}, Access{Column: "name", Lo: b.lo, Hi: b.hi})
	}
	accesses = append(accesses,
		Access{Column: "pre", Keys: []Value{IntValue(7), FloatValue(2), FloatValue(2.5), IntValue(-1), IntValue(n), NullValue(), StringValue("7"), IntValue(0)}},
		Access{Column: "name", Keys: []Value{StringValue("N5"), StringValue("N96"), StringValue("none"), IntValue(5), NullValue(), StringValue("N0")}},
		Access{Column: "depth", Keys: []Value{IntValue(3), FloatValue(7)}},
		Access{},
	)
	for i, a := range accesses {
		for _, limit := range []int{0, 1, 40} {
			for _, residual := range []bool{false, true} {
				a.Limit, a.Cols = limit, []int{0, 1, 6, 8}
				read := func(tb *Table) ([]Row, int, error) {
					a.Accept = nil
					if residual { // acceptRows' closure keeps a scratch row: one per read
						a.Accept = acceptRows(treeShapedSchema.Len(), []int{3}, keep)
					}
					view, release := pinView(tb)
					defer release()
					cb, examined, err := selectAll(context.Background(), view, a)
					return RowsFromColBatch(cb), examined, err
				}
				fr, fex, ferr := read(frozen)
				sr, sex, serr := read(stored)
				if (ferr == nil) != (serr == nil) || fex != sex || !reflect.DeepEqual(fr, sr) {
					t.Fatalf("access %d (%+v) limit %d residual %v: frozen %d rows, %d examined, %v; stored %d, %d, %v",
						i, a, limit, residual, len(fr), fex, ferr, len(sr), sex, serr)
				}
			}
		}
		a.Accept = nil
		for _, max := range []int{0, 1, 5, 2000} {
			if f, s := frozen.CountPostings(a, max), stored.CountPostings(a, max); f != s {
				t.Fatalf("access %d (%+v): CountPostings(%d) = %d, stored %d", i, a, max, f, s)
			}
		}
	}
}

// TestFrozenRefusesDeltas: a delta naming a frozen table is refused
// with an error naming it — nothing of the batch applied, no WAL record
// logged — and neither the WAL nor a checkpoint brings the table back
// on reopen.
func TestFrozenRefusesDeltas(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := frozenTreeRows(50, 0)
	frozen, err := db.PublishFrozen("tree", treeShapedSchema, imageOf(rows))
	if err != nil {
		t.Fatal(err)
	}
	side, err := db.CreateTable("side", MustSchema(Column{Name: "k", Kind: KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	logged := len(walBodies(t, db))
	for _, d := range []TableDelta{
		{Table: "tree", Inserts: rows[:1]},
		{Table: "tree", DeleteIDs: []int64{3}},
		{Table: "tree", DeleteIDs: []int64{3}, Inserts: rows[3:4]},
	} {
		err := db.CommitDeltas([]TableDelta{{Table: "side", Inserts: []Row{{IntValue(1)}}}, d})
		if err == nil || !strings.Contains(err.Error(), "tree") {
			t.Fatalf("delta %+v: err = %v, want a refusal naming the table", d, err)
		}
	}
	if _, err := db.Insert("tree", rows[0]); err == nil {
		t.Fatal("Insert into a frozen table accepted")
	}
	if ok, err := db.Delete("tree", 0); ok || err == nil {
		t.Fatalf("Delete from a frozen table = %v, %v", ok, err)
	}
	if err := frozen.CreateIndex("depth", IndexBTree); err == nil {
		t.Fatal("CreateIndex on a frozen table accepted")
	}
	if side.Len() != 0 || frozen.Len() != len(rows) || frozen.Version() != 1 || side.Version() != 0 {
		t.Fatalf("a refused batch applied: side %d rows v%d, tree %d rows v%d", side.Len(), side.Version(), frozen.Len(), frozen.Version())
	}
	if n := len(walBodies(t, db)); n != logged {
		t.Fatalf("refused batches logged %d WAL records", n-logged)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("side", Row{IntValue(2)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Table("tree"); err == nil {
		t.Fatal("the reopened store holds the frozen table")
	}
	if _, err := db2.Table("side"); err != nil {
		t.Fatalf("the reopened store lost side: %v", err)
	}
	if _, err := db2.PublishFrozen("side", treeShapedSchema, imageOf(rows)); err == nil {
		t.Fatal("a frozen image replaced a stored table")
	}
}

// TestFrozenViewKeepsItsImage: a republish publishes a new image at the
// next version, and a view pinned before it keeps reading the image it
// pinned through every read path.
func TestFrozenViewKeepsItsImage(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	old, next := frozenTreeRows(40, 7), frozenTreeRows(25, 0)
	tab, err := db.PublishFrozen("tree", treeShapedSchema, imageOf(old))
	if err != nil {
		t.Fatal(err)
	}
	snap := db.PinSnapshot()
	defer snap.Release()
	if _, err := db.PublishFrozen("tree", treeShapedSchema, imageOf(next)); err != nil {
		t.Fatal(err)
	}
	if tab.Version() != 2 || tab.Len() != len(next) {
		t.Fatalf("after the republish: v%d, %d rows", tab.Version(), tab.Len())
	}
	view, err := snap.View("tree")
	if err != nil {
		t.Fatal(err)
	}
	lo := IntValue(30)
	cb, _, err := selectAll(context.Background(), view, Access{Column: "pre", Lo: &lo})
	if err != nil {
		t.Fatal(err)
	}
	named, _, err := selectAll(context.Background(), view, equalTo("name", StringValue("N3")))
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	view.Scan(func(int64, Row) bool { scanned++; return true })
	if view.Version() != 1 || scanned != len(old) || !reflect.DeepEqual(viewImage(view), old) ||
		!reflect.DeepEqual(RowsFromColBatch(cb), old[30:]) || named.Rows != 6 {
		t.Fatalf("the pinned view reads v%d, %d scanned, %d in [30,∞), %d named N3",
			view.Version(), scanned, cb.Rows, named.Rows)
	}
	fresh := db.PinSnapshot()
	defer fresh.Release()
	nv, _ := fresh.View("tree")
	if nv.Version() != 2 || !reflect.DeepEqual(viewImage(nv), next) {
		t.Fatalf("a pin after the republish reads v%d", nv.Version())
	}
	if db.PinnedVersions() != 0 {
		t.Fatalf("frozen views registered %d pins", db.PinnedVersions())
	}
	if _, err := db.PublishFrozen("tree", MustSchema(Column{Name: "pre", Kind: KindInt}), FrozenImage{Cols: []Col{{Kind: KindInt, Int: []int64{0}}}}); err == nil {
		t.Fatal("a republish changed the schema")
	}
	// Plans chose their reads by the indexes the table reported, so a
	// republish keeps them: the same Dense and Hash, or an error.
	for _, change := range []func(*FrozenImage){
		func(img *FrozenImage) { img.Hash = "" },
		func(img *FrozenImage) { img.Dense = "" },
		func(img *FrozenImage) { img.Hash = "depth" },
	} {
		img := imageOf(next)
		change(&img)
		if _, err := db.PublishFrozen("tree", treeShapedSchema, img); err == nil || !strings.Contains(err.Error(), "indexes") {
			t.Fatalf("a republish with Dense %q, Hash %q: err = %v, want a refusal", img.Dense, img.Hash, err)
		}
	}
	if tab.Version() != 2 {
		t.Fatalf("a refused republish moved the version to %d", tab.Version())
	}
}

// TestFrozenRejectsBadImages: publish checks the image against the
// schema, the dense column's pre[s] == s and the named columns, and a
// rejected image leaves no table behind.
func TestFrozenRejectsBadImages(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	good := func() FrozenImage { return imageOf(frozenTreeRows(20, 0)) }
	for name, img := range map[string]FrozenImage{
		"pre not dense": func() FrozenImage { img := good(); img.Cols[0].Int[7] = 8; return img }(),
		"short column":  func() FrozenImage { img := good(); img.Cols[5].Float = img.Cols[5].Float[:19]; return img }(),
		"wrong kind":    func() FrozenImage { img := good(); img.Cols[2] = img.Cols[5]; return img }(),
		"null mask":     func() FrozenImage { img := good(); img.Cols[3].Null = make([]bool, 20); return img }(),
		"missing col":   func() FrozenImage { img := good(); img.Cols = img.Cols[:10]; return img }(),
		"dense string":  func() FrozenImage { img := good(); img.Dense = "name"; img.Hash = ""; return img }(),
		"no such hash":  func() FrozenImage { img := good(); img.Hash = "nope"; return img }(),
	} {
		if _, err := db.PublishFrozen("tree", treeShapedSchema, img); err == nil || !strings.Contains(err.Error(), "tree") {
			t.Errorf("%s: err = %v, want a rejection naming the table", name, err)
		}
	}
	if _, err := db.Table("tree"); err == nil {
		t.Fatal("a rejected image left a table")
	}
	if _, err := db.PublishFrozen("tree", treeShapedSchema, good()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("tree", treeShapedSchema); err == nil {
		t.Fatal("CreateTable over a frozen table accepted")
	}
}

// TestFrozenBytesPerRow is the tier-1 guard on the frozen layout: a
// tree_nodes-shaped frozen table, its name lookup included and x sharing
// root_dist's vector as the engine's does, holds a row in at most 96
// bytes of live heap (88 of vectors and ≈ 5 of slot table). The names
// are substrings of one arena built beforehand, as the tree's are.
func TestFrozenBytesPerRow(t *testing.T) {
	const n = 100000
	var b strings.Builder
	off := make([]int, n+1)
	for p := 0; p < n; p++ {
		fmt.Fprintf(&b, "clade_%d", p)
		off[p+1] = b.Len()
	}
	arena := b.String()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	cols := make([]Col, treeShapedSchema.Len())
	for c, col := range treeShapedSchema.Columns {
		cols[c].Kind = col.Kind
		switch col.Kind {
		case KindInt, KindBool:
			cols[c].Int = make([]int64, n)
		case KindFloat:
			cols[c].Float = make([]float64, n)
		default:
			cols[c].Str = make([]string, n)
		}
	}
	cols[8].Float = cols[6].Float // x is root_dist
	for p := 0; p < n; p++ {
		cols[0].Int[p], cols[1].Str[p], cols[6].Float[p] = int64(p), arena[off[p]:off[p+1]], float64(p)/7
	}
	tab, err := db.PublishFrozen("tree_nodes", treeShapedSchema, FrozenImage{Cols: cols, Dense: "pre", Hash: "name"})
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(liveHeap()-before) / n
	t.Logf("%.1f B a row, name lookup included", perRow)
	if perRow > 96 {
		t.Errorf("%.1f B of live heap a frozen row, want ≤ 96", perRow)
	}
	if rows := readRows(t, tab, equalTo("name", StringValue("clade_4711"))); len(rows) != 1 || rows[0][0].I != 4711 {
		t.Fatalf("name lookup found %v", rows)
	}
	runtime.KeepAlive(tab)
	runtime.KeepAlive(arena)
}
