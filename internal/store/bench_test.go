package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func benchTable(b *testing.B, rows int, indexed bool) *Table {
	b.Helper()
	t := NewTable("bench", MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindString},
		Column{Name: "score", Kind: KindFloat},
	))
	if indexed {
		t.CreateIndex("id", IndexBTree)
		t.CreateIndex("name", IndexHash)
	}
	for i := 0; i < rows; i++ {
		insertRow(t, Row{
			IntValue(int64(i)),
			StringValue(fmt.Sprintf("row-%06d", i)),
			FloatValue(float64(i) * 0.5)})
	}
	return t
}

// BenchmarkLookup is the index-vs-scan asymmetry the cost model
// depends on.
func BenchmarkLookup(b *testing.B) {
	const rows = 100000
	indexed := benchTable(b, rows, true)
	plain := benchTable(b, rows, false)
	ctx := context.Background()
	id, name := []Value{IntValue(42000)}, []Value{StringValue("row-042000")}
	lo, hi := IntValue(40000), IntValue(41000)
	// Without an index a lookup is a full pass with the predicate as its
	// residual, as the planner's SeqScan reads it.
	residual := func(keep func(Value) bool) Access {
		return Access{Accept: acceptRows(nil, 3, []int{0}, func(r Row) (bool, error) { return keep(r[0]), nil })}
	}
	for _, c := range []struct {
		name string
		t    *Table
		a    Access
	}{
		{"HashIndexEqual", indexed, Access{Column: "name", Keys: name}},
		{"BTreeIndexEqual", indexed, Access{Column: "id", Keys: id}},
		{"ScanEqual", plain, residual(func(v Value) bool { return Equal(v, id[0]) })},
		{"BTreeRange1k", indexed, Access{Column: "id", Lo: &lo, Hi: &hi}},
		{"ScanRange1k", plain, residual(func(v Value) bool { return inRange(v, &lo, &hi) })},
	} {
		b.Run(c.name, func(b *testing.B) {
			view, release := pinView(c.t)
			defer release()
			for i := 0; i < b.N; i++ {
				if _, _, err := selectAll(ctx, view, c.a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		name := "NoIndex"
		if indexed {
			name = "TwoIndexes"
		}
		b.Run(name, func(b *testing.B) {
			db := dbOf(benchTable(b, 0, indexed))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Insert("bench", Row{
					IntValue(int64(i)),
					StringValue(fmt.Sprintf("row-%06d", i)),
					FloatValue(float64(i)),
				})
			}
		})
	}
}

func BenchmarkRowEncoding(b *testing.B) {
	row := Row{IntValue(123456), StringValue("DT0004213 synthetic protein"), FloatValue(6.125), BoolValue(true)}
	b.Run("Append", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendRow(buf[:0], row)
		}
	})
}

func BenchmarkWALInsert(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("t", MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "v", Kind: KindString}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Insert("t", Row{IntValue(int64(i)), StringValue("payload-payload")}); err != nil {
			b.Fatal(err)
		}
	}
}

// indexBenchKeys are 1<<16 distinct keys of a kind in random order: ints
// spread over 1<<20, strings shaped like the tree's clade names.
func indexBenchKeys(kind Kind) []Value {
	rng := rand.New(rand.NewSource(1))
	keys := make([]Value, 1<<16)
	for i, n := range rng.Perm(1 << 20)[:len(keys)] {
		if kind == KindInt {
			keys[i] = IntValue(int64(n))
		} else {
			keys[i] = StringValue(fmt.Sprintf("clade_%d", n))
		}
	}
	return keys
}

func loadedIndex(typ IndexType, kind Kind, keys []Value) *index {
	ix := newIndex(0, typ, kind, newDict())
	for i, k := range keys {
		fileCell(ix, k, int64(i))
	}
	return ix
}

var indexBenchSink int

// BenchmarkIndexInsert, Probe and Remove price one posting's trip
// through each index form, one row a key — what a commit pays per row
// and per index (ingest's 512 + 512 churn) and what a point lookup pays
// before it touches a row.
func benchIndexForms(b *testing.B, run func(b *testing.B, typ IndexType, kind Kind, keys []Value)) {
	for _, typ := range []IndexType{IndexHash, IndexBTree} {
		for _, kind := range []Kind{KindInt, KindString} {
			keys := indexBenchKeys(kind)
			b.Run(fmt.Sprintf("%v/%v", typ, kind), func(b *testing.B) { run(b, typ, kind, keys) })
		}
	}
}

func BenchmarkIndexInsert(b *testing.B) {
	benchIndexForms(b, func(b *testing.B, typ IndexType, kind Kind, keys []Value) {
		b.ReportAllocs()
		var ix *index
		for i := 0; i < b.N; i++ {
			if i%len(keys) == 0 {
				ix = newIndex(0, typ, kind, newDict())
			}
			fileCell(ix, keys[i%len(keys)], int64(i))
		}
	})
}

func BenchmarkIndexProbe(b *testing.B) {
	benchIndexForms(b, func(b *testing.B, typ IndexType, kind Kind, keys []Value) {
		ix := loadedIndex(typ, kind, keys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids := ix.get(keys[i%len(keys)])
			indexBenchSink += len(ids)
		}
	})
}

func BenchmarkIndexRemove(b *testing.B) {
	benchIndexForms(b, func(b *testing.B, typ IndexType, kind Kind, keys []Value) {
		b.ReportAllocs()
		var ix *index
		for i := 0; i < b.N; i++ {
			if i%len(keys) == 0 {
				b.StopTimer()
				ix = loadedIndex(typ, kind, keys)
				b.StartTimer()
			}
			unfileCell(ix, keys[i%len(keys)], int64(i%len(keys)))
		}
	})
}

// BenchmarkIndexRangeWalk is a 1 k-key interval of a B+-tree over INT
// keys, the subtree read's index half.
func BenchmarkIndexRangeWalk(b *testing.B) {
	keys := make([]Value, 100000)
	for i := range keys {
		keys[i] = IntValue(int64(i))
	}
	ix := loadedIndex(IndexBTree, KindInt, keys)
	lo, hi := IntValue(40000), IntValue(40999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		ix.walk(&lo, &hi, false, func(ids []int64) bool { n += len(ids); return true })
		if n != 1000 {
			b.Fatalf("walked %d postings", n)
		}
	}
}

// BenchmarkIndexCountRange counts the postings of a 5 k-posting range
// of a B+-tree over 48 k FLOAT keys filled in random order — the
// activities affinity index an access path, a join estimate and a
// Select's slot list are sized by: leaf is index.count, a leaf at a
// time; per-key is the walk it replaced, one callback a key.
func BenchmarkIndexCountRange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]Value, 48000)
	for i := range keys {
		keys[i] = FloatValue(rng.Float64())
	}
	ix := loadedIndex(IndexBTree, KindFloat, keys)
	lo, hi := FloatValue(0.5), FloatValue(0.5+5000.0/48000)
	want := countByWalk(ix, &lo, &hi, 0)
	if want < 4800 || want > 5200 {
		b.Fatalf("range holds %d postings", want)
	}
	for _, c := range []struct {
		name  string
		count func() int
	}{
		{"per-key", func() int { return countByWalk(ix, &lo, &hi, 0) }},
		{"leaf", func() int { return ix.count(&lo, &hi, 0) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n := c.count(); n != want {
					b.Fatalf("counted %d postings, want %d", n, want)
				}
			}
		})
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 20)
	}
	b.ResetTimer()
	bt := newBTree[int64](&postings{})
	for i := 0; i < b.N; i++ {
		bt.Insert(keys[i%len(keys)], int64(i))
	}
}

// treeShapedSchema mirrors core.TreeSchema (store must not import
// core): five INT, one BOOL, four FLOAT and one STRING column.
var treeShapedSchema = MustSchema(
	Column{Name: "pre", Kind: KindInt},
	Column{Name: "name", Kind: KindString},
	Column{Name: "parent_pre", Kind: KindInt},
	Column{Name: "depth", Kind: KindInt},
	Column{Name: "is_leaf", Kind: KindBool},
	Column{Name: "branch_length", Kind: KindFloat},
	Column{Name: "root_dist", Kind: KindFloat},
	Column{Name: "leaf_count", Kind: KindInt},
	Column{Name: "x", Kind: KindFloat},
	Column{Name: "y", Kind: KindFloat},
	Column{Name: "end_pre", Kind: KindInt},
)

func treeShapedRows(lo, hi int) []Row {
	rows := make([]Row, 0, hi-lo)
	for p := lo; p < hi; p++ {
		f := float64(p)
		rows = append(rows, Row{
			IntValue(int64(p)), StringValue(fmt.Sprintf("P%06d", p)), IntValue(int64(p / 2)),
			IntValue(int64(p % 40)), BoolValue(p%2 == 0), FloatValue(f * 0.01), FloatValue(f * 0.5),
			IntValue(int64(p % 9)), FloatValue(f), FloatValue(f / 3), IntValue(int64(p + 5)),
		})
	}
	return rows
}

// loadTreeShaped builds the tree_nodes layout the engine builds: rows
// committed in chunks, then a B+-tree on pre and a hash index on name.
func loadTreeShaped(tb testing.TB, n int) *Table {
	tb.Helper()
	db, err := Open("")
	if err != nil {
		tb.Fatal(err)
	}
	t, err := db.CreateTable("tree_nodes", treeShapedSchema)
	if err != nil {
		tb.Fatal(err)
	}
	for lo := 0; lo < n; lo += 4096 {
		if err := db.CommitDeltas([]TableDelta{{Table: "tree_nodes", Inserts: treeShapedRows(lo, min(lo+4096, n))}}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := t.CreateIndex("pre", IndexBTree); err != nil {
		tb.Fatal(err)
	}
	if err := t.CreateIndex("name", IndexHash); err != nil {
		tb.Fatal(err)
	}
	return t
}

// BenchmarkGatherRange is a navigation miss: a 2 k-row subtree interval
// selected through the B+-tree on pre and filled into a ten-column
// batch, at one pin.
func BenchmarkGatherRange(b *testing.B) {
	t := loadTreeShaped(b, 100000)
	view, release := pinView(t)
	defer release()
	lo, hi := IntValue(40000), IntValue(41999)
	a := Access{Column: "pre", Lo: &lo, Hi: &hi, Cols: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, _, err := selectAll(context.Background(), view, a)
		if err != nil || cb.Rows != 2000 {
			b.Fatalf("filled %d rows, %v", cb.Rows, err)
		}
	}
}

// BenchmarkSeqPass is the index-free pass over 100 k rows, as a
// callback scan and as a two-column Select with a residual, filled
// whole at one pin.
func BenchmarkSeqPass(b *testing.B) {
	t := loadTreeShaped(b, 100000)
	b.Run("Scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := 0
			t.Scan(func(int64, Row) bool { rows++; return true })
			if rows != 100000 {
				b.Fatal(rows)
			}
		}
	})
	b.Run("GatherFiltered", func(b *testing.B) {
		// The residual reads column 3 as the query layer's does: each
		// chunk's cells filled into a reused vector, the chunk narrowed
		// in place.
		var fill Col
		a := Access{Cols: []int{0, 6}, Accept: func(chunk *Selection) (int, error) {
			chunk.FillCol(&fill, 3, 0, len(chunk.Slots))
			kept := chunk.Slots[:0]
			for k, s := range chunk.Slots {
				if !fill.Null[k] && fill.Int[k] < 4 {
					kept = append(kept, s)
				}
			}
			chunk.Slots = kept
			return 0, nil
		}}
		view, release := pinView(t)
		defer release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cb, _, err := selectAll(context.Background(), view, a)
			if err != nil || cb.Rows != 10000 {
				b.Fatalf("filled %d rows, %v", cb.Rows, err)
			}
		}
	})
}

// BenchmarkFrozenFill is one 1 024-row Fill of a frozen INT column, a
// window of a 100 k-row full pass at a time: the column held as Int
// (int64, copied), computed from an int32 array (widened) and as the
// dense column (the slot written).
func BenchmarkFrozenFill(b *testing.B) {
	const n, window = 100000, 1024
	rows := frozenTreeRows(n, 0)
	for _, form := range []struct {
		name string
		img  FrozenImage
		col  int
	}{{"int64", imageOf(rows), 3}, {"computed", computed(imageOf(rows)), 3}, {"dense", imageOf(rows), 0}} {
		b.Run(form.name, func(b *testing.B) {
			db, err := Open("")
			if err != nil {
				b.Fatal(err)
			}
			tab, err := db.PublishFrozen("tree", treeShapedSchema, form.img)
			if err != nil {
				b.Fatal(err)
			}
			view, release := pinView(tab)
			defer release()
			sel, _, err := view.Select(context.Background(), Access{Cols: []int{form.col}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			var dst Col
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i * window % (n - window)
				sel.FillCol(&dst, 0, lo, lo+window)
			}
		})
	}
}

// BenchmarkCommitDelta512 is one ingest commit: 512 deletes and 512
// inserts on an indexed 48 k-row table with a commit hook listening.
// Its hash index holds 6 keys, ≈ 8 k rows each.
func BenchmarkCommitDelta512(b *testing.B) {
	benchCommitDelta512(b, accessSchema, accessRow, false, func(t *Table) error { return t.CreateIndex("g", IndexHash) })
}

// BenchmarkCommitDelta512Ingest is the same commit on a table shaped
// like D1's activities (see activitiesShape), as the ingest workload
// churns it, with its indexes. The deletes are random live rows.
func BenchmarkCommitDelta512Ingest(b *testing.B) {
	schema, row := activitiesShape()
	benchCommitDelta512(b, schema, row, true, func(t *Table) error {
		return errors.Join(t.CreateIndex("protein_id", IndexHash), t.CreateIndex("ligand_id", IndexHash),
			t.CreateIndex("affinity", IndexBTree))
	})
}

const activitiesProteins = 800

// activitiesShape describes a table shaped like D1's activities:
// protein_id holds 800 names, ≈ 60 rows each in 48 k, hash-indexed (so
// coded); ligand_id 200 IDs, ≈ 240 rows each, hash-indexed; a B+-tree
// over affinity, a FLOAT unique to its row.
func activitiesShape() (*Schema, func(*rand.Rand) Row) {
	const ligands = 200
	schema := MustSchema(Column{Name: "protein_id", Kind: KindString}, Column{Name: "ligand_id", Kind: KindString},
		Column{Name: "affinity", Kind: KindFloat})
	names, ids := make([]Value, activitiesProteins), make([]Value, ligands)
	for i := range names {
		names[i] = StringValue(fmt.Sprintf("DT%05d", i*7919%100000))
	}
	for i := range ids {
		ids[i] = StringValue(fmt.Sprintf("LIG%04d", i))
	}
	row := func(rng *rand.Rand) Row {
		return Row{names[rng.Intn(activitiesProteins)], ids[rng.Intn(ligands)], FloatValue(rng.Float64() * 10)}
	}
	return schema, row
}

// loadActivities commits 48 k activities-shaped rows to a new table,
// unindexed.
func loadActivities(b *testing.B) *Table {
	schema, row := activitiesShape()
	db, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	t, err := db.CreateTable("t", schema)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, 48000)
	for i := range rows {
		rows[i] = row(rng)
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: rows}}); err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkTableScan is Table.Scan over 48 k stored activities-shaped
// rows whose two STRING columns are hash-indexed, and so coded: the
// read that set-up (the overlay's base load), integrate.Sync's diff and
// TreePlacement make. It reports ns/row too.
func BenchmarkTableScan(b *testing.B) {
	t := loadActivities(b)
	if err := errors.Join(t.CreateIndex("protein_id", IndexHash), t.CreateIndex("ligand_id", IndexHash)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		t.Scan(func(int64, Row) bool { n++; return true })
		if n != t.Len() {
			b.Fatalf("scanned %d rows of %d", n, t.Len())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*t.Len()), "ns/row")
}

// BenchmarkIndexBackfill files the 48 k stored rows of an
// activities-shaped table into a new index, as CreateIndex does: a code
// index over protein_id (the column coded once, before the timing), a
// B+-tree over affinity.
func BenchmarkIndexBackfill(b *testing.B) {
	t := loadActivities(b)
	t.codeColumnLocked(0)
	for _, c := range []struct {
		name string
		ix   func() *index
	}{
		{"hash", func() *index { return newIndex(0, IndexHash, KindString, t.dict) }},
		{"btree", func() *index { return newIndex(2, IndexBTree, KindFloat, nil) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t.backfill(c.ix())
			}
		})
	}
}

// benchCommitDelta512 loads 48 k rows of schema, indexes them, and times
// commits of 512 deletes — the first live rows in storage order, or
// random ones — and 512 fresh rows.
func benchCommitDelta512(b *testing.B, schema *Schema, row func(*rand.Rand) Row, random bool, index func(*Table) error) {
	const rows, batch = 48000, 512
	db, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	t, err := db.CreateTable("t", schema)
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	db.OnCommit(func(ev CommitEvent) { events += len(ev.Inserted) + ev.NumDeleted() })
	rng := rand.New(rand.NewSource(1))
	fresh := func(n int) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = row(rng)
		}
		return out
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: fresh(rows)}}); err != nil {
		b.Fatal(err)
	}
	if err := index(t); err != nil {
		b.Fatal(err)
	}
	var live []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		live = live[:0]
		t.Scan(func(id int64, _ Row) bool { live = append(live, id); return random || len(live) < batch })
		if random {
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		}
		ins := fresh(batch)
		b.StartTimer()
		if err := db.CommitDeltas([]TableDelta{{Table: "t", DeleteIDs: live[:batch], Inserts: ins}}); err != nil {
			b.Fatal(err)
		}
	}
	if events == 0 {
		b.Fatal("the commit hook saw nothing")
	}
}

// BenchmarkIndexCodeChurn prices one row's trip out of and back into a
// code index, as ingest's churn makes it: 48 k postings over 800 codes,
// a random row removed and filed again under another code, read from
// its column as the table does. btree files the same codes in a
// B+-tree over INT keys.
func BenchmarkIndexCodeChurn(b *testing.B) {
	const rows, names = 48000, 800
	for _, form := range []string{"code", "btree"} {
		b.Run(form, func(b *testing.B) {
			ix := newIndex(0, IndexHash, KindString, newDict())
			file := func(c int32, id int64, remove bool) {
				switch {
				case form == "btree" && remove:
					ix.ints.Delete(int64(c), id)
				case form == "btree":
					ix.ints.Insert(int64(c), id)
				case remove:
					ix.dropCode(c, id)
				default:
					ix.addCode(c, id)
				}
			}
			if form == "btree" {
				ix = newIndex(0, IndexBTree, KindInt, nil)
			}
			rng := rand.New(rand.NewSource(1))
			codes, gen := make([]int32, rows), make([]int64, rows)
			for s := range codes {
				codes[s] = int32(1 + 2*rng.Intn(names))
				file(codes[s], int64(s), false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := rng.Intn(rows)
				file(codes[s], gen[s]<<32|int64(s), true)
				gen[s]++
				codes[s] = int32(1 + 2*rng.Intn(names))
				file(codes[s], gen[s]<<32|int64(s), false)
			}
		})
	}
}
