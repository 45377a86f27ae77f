package store

import (
	"context"
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
		t.Insert(Row{
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
	for _, c := range []struct {
		name string
		t    *Table
		a    Access
	}{
		{"HashIndexEqual", indexed, Access{Column: "name", Keys: name}},
		{"BTreeIndexEqual", indexed, Access{Column: "id", Keys: id}},
		{"ScanEqual", plain, Access{Column: "id", Keys: id}},
		{"BTreeRange1k", indexed, Access{Column: "id", Lo: &lo, Hi: &hi}},
		{"ScanRange1k", plain, Access{Column: "id", Lo: &lo, Hi: &hi}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := c.t.Gather(ctx, -1, c.a); err != nil {
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
			t := benchTable(b, 0, indexed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Insert(Row{
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

func BenchmarkStats(b *testing.B) {
	t := benchTable(b, 50000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Stats()
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 20)
	}
	b.ResetTimer()
	bt := newBTree()
	for i := 0; i < b.N; i++ {
		bt.Insert(IntValue(keys[i%len(keys)]), int64(i))
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
// read through the B+-tree on pre into a ten-column batch.
func BenchmarkGatherRange(b *testing.B) {
	t := loadTreeShaped(b, 100000)
	lo, hi := IntValue(40000), IntValue(41999)
	a := Access{Column: "pre", Lo: &lo, Hi: &hi, Cols: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, _, err := t.Gather(context.Background(), -1, a)
		if err != nil || cb.Rows != 2000 {
			b.Fatalf("gathered %d rows, %v", cb.Rows, err)
		}
	}
}

// BenchmarkSeqPass is the index-free pass over 100 k rows, as a
// callback scan and as a two-column gather with a residual.
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
		a := Access{Cols: []int{0, 6}, Accept: func(r Row) (bool, error) { return r[3].I < 4, nil }}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cb, _, err := t.Gather(context.Background(), -1, a)
			if err != nil || cb.Rows != 10000 {
				b.Fatalf("gathered %d rows, %v", cb.Rows, err)
			}
		}
	})
}

// BenchmarkCommitDelta512 is one ingest commit: 512 deletes and 512
// inserts on an indexed 48 k-row table with a commit hook listening.
func BenchmarkCommitDelta512(b *testing.B) {
	const rows, batch = 48000, 512
	db, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	t, err := db.CreateTable("t", accessSchema)
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	db.OnCommit(func(ev CommitEvent) { events += len(ev.Inserted) + len(ev.Deleted) })
	rng := rand.New(rand.NewSource(1))
	fresh := func(n int) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = accessRow(rng)
		}
		return out
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: fresh(rows)}}); err != nil {
		b.Fatal(err)
	}
	if err := t.CreateIndex("g", IndexHash); err != nil {
		b.Fatal(err)
	}
	var live []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		live = live[:0]
		t.Scan(func(id int64, _ Row) bool { live = append(live, id); return len(live) < batch })
		ins := fresh(batch)
		b.StartTimer()
		if err := db.CommitDeltas([]TableDelta{{Table: "t", DeleteIDs: live, Inserts: ins}}); err != nil {
			b.Fatal(err)
		}
	}
	if events == 0 {
		b.Fatal("the commit hook saw nothing")
	}
}
