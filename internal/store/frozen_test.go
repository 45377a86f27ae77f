package store

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
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
// pre dense (no vector) and name hashed through a nameLookup.
func imageOf(rows []Row) FrozenImage {
	cols := make([]Col, treeShapedSchema.Len())
	for c, col := range treeShapedSchema.Columns {
		cols[c].Kind = col.Kind
		for _, r := range rows {
			switch {
			case c == 0: // pre, the dense column
			case col.Kind == KindInt || col.Kind == KindBool:
				cols[c].Int = append(cols[c].Int, r[c].I)
			case col.Kind == KindFloat:
				cols[c].Float = append(cols[c].Float, r[c].F)
			default:
				cols[c].Str = append(cols[c].Str, r[c].S)
			}
		}
	}
	names := lookupOf(cols[1].Str)
	return FrozenImage{Rows: len(rows), Cols: cols, Dense: "pre", Hash: "name", Lookup: names.appendSlots, Distinct: len(names)}
}

// nameLookup is a test index of a string column, a FrozenImage's Lookup:
// each name's slots, ascending.
type nameLookup map[string][]int32

func lookupOf(names []string) nameLookup {
	l := nameLookup{}
	for s, name := range names {
		l[name] = append(l[name], int32(s))
	}
	return l
}

func (l nameLookup) appendSlots(dst []int32, k Value) []int32 {
	if k.K != KindString {
		return dst
	}
	return append(dst, l[k.S]...)
}

// computed returns img with every Int vector replaced by a column
// computed from an int32 copy and every Str vector by one computed from
// the strings, as an owner publishes views of its own arrays.
func computed(img FrozenImage) FrozenImage {
	cols := slices.Clone(img.Cols)
	for c := range cols {
		switch col := &cols[c]; {
		case col.Int != nil:
			v := make([]int32, len(col.Int))
			for i, x := range col.Int {
				v[i] = int32(x)
			}
			col.Int, col.Compute = nil, func(dst *Col, slots []int32) {
				for k, s := range slots {
					dst.Int[k] = int64(v[s])
				}
			}
		case col.Str != nil:
			v := col.Str
			col.Str, col.Compute = nil, func(dst *Col, slots []int32) {
				for k, s := range slots {
					dst.Str[k] = v[s]
				}
			}
		}
	}
	img.Cols = cols
	return img
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

// TestFrozenMatchesStored: every read of a frozen table answers
// exactly as a stored table loaded with the same rows does, on a tree
// whose names repeat (see sameReads).
func TestFrozenMatchesStored(t *testing.T) {
	const n = 3000
	frozen, stored := frozenAndStored(t, frozenTreeRows(n, 97))
	sameReads(t, n, frozen, stored)
}

// TestFrozenComputedMatchesWide is the differential test of computed
// columns: an image whose INT, BOOL and STRING columns are computed from
// int32 arrays and a string slice answers every read exactly as the
// same rows in vectors and in a stored table do, with a negative parent
// and int32's extremes among the cells. A view pinned before the
// computed table is republished keeps reading its image after the last
// other reference to it is gone.
func TestFrozenComputedMatchesWide(t *testing.T) {
	const n = 3000
	rows := frozenTreeRows(n, 97)
	rows[0][2], rows[1][10], rows[2][3] = IntValue(-1), IntValue(math.MaxInt32), IntValue(math.MinInt32)
	wide, stored := frozenAndStored(t, rows)
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	calc, err := db.PublishFrozen("computed", treeShapedSchema, computed(imageOf(rows)))
	if err != nil {
		t.Fatal(err)
	}
	sameReads(t, n, calc, wide)
	sameReads(t, n, calc, stored)

	snap := db.PinSnapshot()
	defer snap.Release()
	next := frozenTreeRows(25, 0)
	if _, err := db.PublishFrozen("computed", treeShapedSchema, computed(imageOf(next))); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	view, err := snap.View("computed")
	if err != nil {
		t.Fatal(err)
	}
	lo := IntValue(30)
	cb, _, err := selectAll(context.Background(), view, Access{Column: "pre", Lo: &lo, Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	desc := slices.Clone(rows[30:])
	slices.Reverse(desc)
	if !reflect.DeepEqual(viewImage(view), rows) || !reflect.DeepEqual(RowsFromColBatch(cb), desc) {
		t.Fatalf("the pinned view reads %d rows, %d in [30,∞)", len(viewImage(view)), cb.Rows)
	}
	fresh := db.PinSnapshot()
	defer fresh.Release()
	if nv, _ := fresh.View("computed"); !reflect.DeepEqual(viewImage(nv), next) {
		t.Fatal("a pin after the republish does not read the new image")
	}
}

// TestComputedScanAllocates: a Scan reads a frozen image a chunk at a
// time through Fill whatever form its columns take, so one over
// computed columns allocates no more than one over the same rows in
// vectors — nothing a cell — and the storage column stays within 136
// bytes.
func TestComputedScanAllocates(t *testing.T) {
	if size := unsafe.Sizeof(Col{}); size > 136 {
		t.Errorf("Col is %d B, want ≤ 136", size)
	}
	rows := frozenTreeRows(2000, 0)
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(name string, img FrozenImage) float64 {
		tab, err := db.PublishFrozen(name, treeShapedSchema, img)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			n := 0
			tab.Scan(func(int64, Row) bool { n++; return true })
			if n != len(rows) {
				t.Fatalf("scanned %d rows", n)
			}
		})
	}
	vec, calc := allocs("vectors", imageOf(rows)), allocs("computed", computed(imageOf(rows)))
	t.Logf("a Scan allocates %.0f times over vectors, %.0f over computed columns", vec, calc)
	if calc > vec {
		t.Errorf("a Scan over computed columns allocates %.0f times, over vectors %.0f", calc, vec)
	}
}

// TestStoredTablesHoldOnlyVectors: only a frozen image holds computed
// columns. A commit hands a stored table rows, never a column, so every
// column holds its kind's vector and no Compute through inserts,
// deletes and GC; and a computed image cannot replace a stored table.
func TestStoredTablesHoldOnlyVectors(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := db.CreateTable("stored", treeShapedSchema)
	if err != nil {
		t.Fatal(err)
	}
	rows := frozenTreeRows(300, 0)
	check := func(when string) {
		for c, col := range stored.cols {
			held := col.Int != nil
			switch col.Kind {
			case KindFloat:
				held = col.Float != nil
			case KindString:
				held = col.Str != nil
			}
			if col.Compute != nil || !held {
				t.Fatalf("%s: stored column %d is computed (%v) or holds no vector", when, c, col.Compute != nil)
			}
		}
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "stored", Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	check("after inserts")
	if err := db.CommitDeltas([]TableDelta{{Table: "stored", DeleteIDs: []int64{0, 5, 77}, Inserts: rows[:2]}}); err != nil {
		t.Fatal(err)
	}
	check("after a replace")
	if _, err := db.PublishFrozen("stored", treeShapedSchema, computed(imageOf(rows))); err == nil {
		t.Fatal("a computed image replaced a stored table")
	}
	check("after a refused publish")
}

// sameReads checks that tables a and b, each holding n rows of
// treeShapedSchema, answer alike: Scan, Snapshot, index introspection,
// DistinctKeys, CountPostings and Select + Fill on pre ranges (ascending
// and descending) and keys and on name keys, with Limit and a residual
// that fills pre and depth, emitting four columns and all eleven; an
// access no index serves (a name range, any read by depth) fails on
// both.
func sameReads(t *testing.T, n int64, x, y *Table) {
	t.Helper()
	dump := func(tb *Table) (out []string) {
		tb.Scan(func(id int64, r Row) bool {
			out = append(out, fmt.Sprintf("%d:%x", id, AppendRow(nil, r)))
			return true
		})
		return out
	}
	if err := sameStrings(x.Name()+" Scan", dump(x), dump(y)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x.Snapshot(), y.Snapshot()) {
		t.Fatalf("Snapshot differs: %s, %s", x.Name(), y.Name())
	}
	if !reflect.DeepEqual(x.Indexes(), y.Indexes()) {
		t.Fatalf("Indexes = %v, %s %v", x.Indexes(), y.Name(), y.Indexes())
	}
	for _, col := range []string{"pre", "name", "depth", "nope"} {
		ft, fok := x.HasIndex(col)
		st, sok := y.HasIndex(col)
		if ft != st || fok != sok {
			t.Fatalf("HasIndex(%s) = %v, %v; %s %v, %v", col, ft, fok, y.Name(), st, sok)
		}
		fn, fok := x.DistinctKeys(col)
		sn, sok := y.DistinctKeys(col)
		if fn != sn || fok != sok {
			t.Fatalf("DistinctKeys(%s) = %d, %v; %s %d, %v", col, fn, fok, y.Name(), sn, sok)
		}
	}

	val := func(v Value) *Value { return &v }
	keep := func(r Row) (bool, error) { return r[3].I%3 != 0 && r[0].I%5 != 1, nil }
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
				for _, cols := range [][]int{{0, 1, 6, 8}, nil} {
					a.Limit, a.Cols = limit, cols
					read := func(tb *Table) ([]Row, int, error) {
						a.Accept = nil
						if residual { // acceptRows' closure keeps a scratch row: one per read
							a.Accept = acceptRows(treeShapedSchema.Len(), []int{0, 3}, keep)
						}
						view, release := pinView(tb)
						defer release()
						cb, examined, err := selectAll(context.Background(), view, a)
						return RowsFromColBatch(cb), examined, err
					}
					xr, xex, xerr := read(x)
					yr, yex, yerr := read(y)
					if (xerr == nil) != (yerr == nil) || xex != yex || !reflect.DeepEqual(xr, yr) {
						t.Fatalf("access %d (%+v) limit %d residual %v: %s %d rows, %d examined, %v; %s %d, %d, %v",
							i, a, limit, residual, x.Name(), len(xr), xex, xerr, y.Name(), len(yr), yex, yerr)
					}
				}
			}
		}
		a.Accept = nil
		for _, max := range []int{0, 1, 5, 2000} {
			if f, s := x.CountPostings(a, max), y.CountPostings(a, max); f != s {
				t.Fatalf("access %d (%+v): CountPostings(%d) = %d, %s %d", i, a, max, f, y.Name(), s)
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
	if _, err := db.PublishFrozen("tree", MustSchema(Column{Name: "pre", Kind: KindInt}), FrozenImage{Rows: 1, Cols: []Col{{Kind: KindInt, Int: []int64{0}}}}); err == nil {
		t.Fatal("a republish changed the schema")
	}
	// Plans chose their reads by the indexes the table reported, so a
	// republish keeps them: the same Dense and Hash, or an error.
	for _, change := range []func(*FrozenImage){
		func(img *FrozenImage) { img.Hash = "" },
		func(img *FrozenImage) { // pre holds its cells once it is not dense
			img.Dense, img.Cols[0].Int = "", make([]int64, len(next))
			for s := range img.Cols[0].Int {
				img.Cols[0].Int[s] = int64(s)
			}
		},
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
// schema, its columns (one per schema column: a vector of Rows cells of
// the column's kind or a computed column, nothing for the dense one)
// and the named columns, and a rejected image leaves no table behind.
func TestFrozenRejectsBadImages(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	good := func() FrozenImage { return imageOf(frozenTreeRows(20, 0)) }
	for name, img := range map[string]FrozenImage{
		"dense vector":    func() FrozenImage { img := good(); img.Cols[0].Int = make([]int64, 20); return img }(),
		"dense computed":  func() FrozenImage { img := good(); img.Cols[0].Compute = slotCells; return img }(),
		"short column":    func() FrozenImage { img := good(); img.Cols[5].Float = img.Cols[5].Float[:19]; return img }(),
		"more rows":       func() FrozenImage { img := good(); img.Rows = 21; return img }(),
		"two vectors":     func() FrozenImage { img := good(); img.Cols[5].Int = make([]int64, 20); return img }(),
		"computed vector": func() FrozenImage { img := computed(good()); img.Cols[3].Int = make([]int64, 20); return img }(),
		"wrong kind":      func() FrozenImage { img := good(); img.Cols[2] = img.Cols[5]; return img }(),
		"null mask":       func() FrozenImage { img := good(); img.Cols[3].Null = make([]bool, 20); return img }(),
		"missing col":     func() FrozenImage { img := good(); img.Cols = img.Cols[:10]; return img }(),
		"dense string":    func() FrozenImage { img := good(); img.Dense = "name"; img.Hash = ""; return img }(),
		"no such hash":    func() FrozenImage { img := good(); img.Hash = "nope"; return img }(),
		"hash no lookup":  func() FrozenImage { img := good(); img.Lookup = nil; return img }(),
		"negative rows":   func() FrozenImage { img := good(); img.Rows = -1; return img }(),
	} {
		if _, err := db.PublishFrozen("tree", treeShapedSchema, img); err == nil || !strings.Contains(err.Error(), "tree") {
			t.Errorf("%s: err = %v, want a rejection naming the table", name, err)
		}
	}
	if _, err := db.Table("tree"); err == nil {
		t.Fatal("a rejected image left a table")
	}
	pre := MustSchema(Column{Name: "pre", Kind: KindInt})
	only, err := db.PublishFrozen("pre", pre, FrozenImage{Rows: 3, Cols: []Col{{Kind: KindInt}}, Dense: "pre"})
	if err != nil {
		t.Fatal(err)
	}
	if got := only.Snapshot(); !reflect.DeepEqual(got, []Row{{IntValue(0)}, {IntValue(1)}, {IntValue(2)}}) {
		t.Fatalf("an image of the dense column alone reads %v", got)
	}
	if _, err := db.PublishFrozen("tree", treeShapedSchema, good()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("tree", treeShapedSchema); err == nil {
		t.Fatal("CreateTable over a frozen table accepted")
	}
}

// TestFrozenBytesPerRow is the tier-1 guard on the frozen layout: a
// tree_nodes-shaped frozen table published as the engine publishes its
// own — pre dense, the other INT and BOOL columns and name computed
// from its owner's int32 arrays and name arena, x sharing root_dist's
// vector, the owner's name lookup — allocates at most 1 byte a row of
// live heap beyond the owner's arrays: the image holds its columns and
// lookup, never a per-row vector (0.0 measured). While the image held
// int32 vectors, name headers and its own slot table it allocated
// 65.5 B a row, and 93.6 B with int64 vectors.
func TestFrozenBytesPerRow(t *testing.T) {
	const n = 100000
	var b strings.Builder
	off := make([]int, n+1)
	for p := 0; p < n; p++ {
		fmt.Fprintf(&b, "clade_%d", p)
		off[p+1] = b.Len()
	}
	arena := b.String()
	ints, floats := make([]int32, n), make([]float64, n)
	names := make(nameLookup, n)
	for p := range n {
		ints[p], floats[p] = int32(p%31), float64(p)/7
		names[arena[off[p]:off[p+1]]] = []int32{int32(p)}
	}
	intCol := func(kind Kind) Col {
		return Col{Kind: kind, Compute: func(dst *Col, slots []int32) {
			for k, s := range slots {
				dst.Int[k] = int64(ints[s])
			}
		}}
	}
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	cols := make([]Col, treeShapedSchema.Len())
	for c, col := range treeShapedSchema.Columns {
		switch {
		case c == 0: // pre, the dense column
			cols[c].Kind = col.Kind
		case col.Kind == KindInt || col.Kind == KindBool:
			cols[c] = intCol(col.Kind)
		case col.Kind == KindFloat:
			cols[c] = Col{Kind: col.Kind, Float: floats}
		default:
			cols[c] = Col{Kind: col.Kind, Compute: func(dst *Col, slots []int32) {
				for k, s := range slots {
					dst.Str[k] = arena[off[s]:off[s+1]]
				}
			}}
		}
	}
	tab, err := db.PublishFrozen("tree_nodes", treeShapedSchema, FrozenImage{Rows: n, Cols: cols, Dense: "pre", Hash: "name", Lookup: names.appendSlots, Distinct: n})
	if err != nil {
		t.Fatal(err)
	}
	perRow := float64(liveHeap()-before) / n
	t.Logf("%.2f B a row beyond the owner's arrays", perRow)
	if perRow > 1 {
		t.Errorf("a frozen image allocates %.2f B of live heap a row beyond its owner's arrays, want ≤ 1", perRow)
	}
	if rows := readRows(t, tab, equalTo("name", StringValue("clade_4711"))); len(rows) != 1 || rows[0][0].I != 4711 || rows[0][3].I != 4711%31 {
		t.Fatalf("name lookup found %v", rows)
	}
	runtime.KeepAlive(tab)
	runtime.KeepAlive(names)
}
