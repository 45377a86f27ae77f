package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestReplayDeletesThroughIndex replays one of ingest's 512-row delete
// batches by value against a 50 k-row table full of duplicates and
// NULLs, once with indexes to probe and once with none (the scan path),
// and demands the same surviving multiset.
func TestReplayDeletesThroughIndex(t *testing.T) {
	const rows, batch = 50000, 512
	rng := rand.New(rand.NewSource(3))
	data := make([]Row, rows)
	for i := range data {
		k := FloatValue(float64(rng.Intn(400)) / 4)
		if rng.Intn(10) == 0 {
			k = NullValue()
		}
		g := StringValue(fmt.Sprintf("g%d", rng.Intn(30)))
		if rng.Intn(10) == 0 {
			g = NullValue()
		}
		// serial repeats, so many rows are equal in every column.
		data[i] = Row{k, g, IntValue(int64(rng.Intn(40)))}
	}
	var deletes []Row
	for _, i := range rng.Perm(rows)[:batch-12] {
		deletes = append(deletes, data[i])
	}
	for i := 0; i < 12; i++ { // matching nothing: skipped
		deletes = append(deletes, Row{FloatValue(-1), StringValue("absent"), IntValue(int64(i))})
	}
	inserts := []Row{{NullValue(), NullValue(), IntValue(99)}} // no row of data equals it
	build := func(indexed bool) *Table {
		tb := NewTable("t", modelSchema)
		if indexed {
			for col, typ := range map[string]IndexType{"k": IndexBTree, "g": IndexHash} {
				if err := tb.CreateIndex(col, typ); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tb.applyDeltaByValue(nil, data); err != nil {
			t.Fatal(err)
		}
		if err := tb.applyDeltaByValue(deletes, inserts); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	probed, scanned := build(true), build(false)
	if want := rows - (batch - 12) + 1; probed.Len() != want || scanned.Len() != want {
		t.Fatalf("Len = %d indexed, %d scanned, want %d", probed.Len(), scanned.Len(), want)
	}
	if err := sameStrings("survivors", canonRows(probed.Snapshot()), canonRows(scanned.Snapshot())); err != nil {
		t.Fatal(err)
	}
	if probed.Version() != 2 || probed.DeadVersions() != 0 {
		t.Fatalf("version %d, %d dead versions after one replayed batch", probed.Version(), probed.DeadVersions())
	}
	// Equal deletes pair off one to one: a batch naming the NULL-keyed row
	// twice removes the one that exists and skips the other.
	if err := probed.applyDeltaByValue([]Row{inserts[0], inserts[0]}, nil); err != nil {
		t.Fatal(err)
	}
	if want := rows - (batch - 12); probed.Len() != want {
		t.Fatalf("Len = %d after deleting the NULL-keyed row twice, want %d", probed.Len(), want)
	}
}

// leafFill returns keys held / key capacity over the tree's leaves.
func leafFill(bt *btree[int64]) float64 {
	keys, room := 0, 0
	for n := bt.edgeLeaf(false); n != nil; n = n.next {
		keys += len(n.keys)
		room += cap(n.keys)
	}
	return float64(keys) / float64(room)
}

// TestBTreeLeafFill pins the packing: monotone loads in either
// direction leave the leaves full (the edge leaf splits at its end), a
// random load leaves them no worse than a B-tree's usual two thirds,
// and a single posting costs no list and no position of its own.
func TestBTreeLeafFill(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(8))
	loads := map[string]struct {
		key  func(i int) int64
		fill float64
	}{
		"ascending":  {func(i int) int64 { return int64(i) }, 0.99},
		"descending": {func(i int) int64 { return int64(n - i) }, 0.99},
		"random":     {func(i int) int64 { return rng.Int63() }, 0.6},
	}
	for name, load := range loads {
		bt := newBTree[int64](&postings{})
		for i := 0; i < n; i++ {
			bt.Insert(load.key(i), int64(i))
		}
		if got := leafFill(bt); got < load.fill {
			t.Errorf("%s load: leaves %.2f full, want ≥ %.2f", name, got, load.fill)
		}
		prev, count := int64(0), 0
		bt.walk(nil, nil, false, func(k int64, ids []int64) bool {
			if count > 0 && prev >= k {
				t.Fatalf("%s load: key %v after %v", name, k, prev)
			}
			prev, count = k, count+1
			return len(ids) == 1
		})
		if count != n {
			t.Fatalf("%s load: walked %d of %d keys", name, count, n)
		}
		if bt.post.lists != nil || bt.post.pos != nil {
			t.Fatalf("%s load: unique keys allocated %d lists and %d positions", name, len(bt.post.lists), len(bt.post.pos))
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesPerRow is the tier-1 guard on the storage layout: a
// tree_nodes-shaped table with both its indexes must hold a row in at
// most 204 bytes of live heap (185 measured + 10 %; 250 with Value-keyed
// indexes, about 720 with the boxed row heap).
func TestBytesPerRow(t *testing.T) {
	const n = 100000
	before := liveHeap()
	tb := loadTreeShaped(t, n)
	perRow := float64(liveHeap()-before) / n
	t.Logf("%.0f B a row, indexes included", perRow)
	if perRow > 204 {
		t.Errorf("%.0f B of live heap a row, want ≤ 204", perRow)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d", tb.Len())
	}
	runtime.KeepAlive(tb)
}

// TestIndexBytesPerKey is the tier-1 guard on the index forms alone. One
// row a key: a B+-tree over a dense INT column, loaded in key order as
// CreateIndex loads it, costs at most 20 bytes a key (8 of key, 8 of row
// ID, the rest node headers and interior nodes), and a hash index over
// 100 k unique strings at most 24 (a 16-byte entry at the load a
// power-of-two table has there), neither allocating positions.
// Repeated keys: a hash index over a STRING column with 60 rows a key,
// filed row by row as commits file them, costs at most 15 bytes a row
// (14.1 measured): 8.5 of row ID in its key's list, grown by an eighth
// at a time (cap 64 for 60 rows), 5.2 of position (4, and the position
// array's growth), the table's entries shared by 60 rows. The strings
// themselves — the column's — are not counted. Each form must hand back
// exactly the rows filed under a key.
func TestIndexBytesPerKey(t *testing.T) {
	const n, perKey = 100000, 60
	names := make([]Value, n)
	for i := range names {
		names[i] = StringValue(fmt.Sprintf("clade_%d", i))
	}
	for _, c := range []struct {
		name string
		typ  IndexType
		kind Kind
		key  func(i int) Value
		max  float64
	}{
		{"btree over dense INT", IndexBTree, KindInt, func(i int) Value { return IntValue(int64(i)) }, 20},
		{"hash over unique STRING", IndexHash, KindString, func(i int) Value { return names[i] }, 24},
		{"hash over STRING, 60 rows a key", IndexHash, KindString, func(i int) Value { return names[i%(n/perKey)] }, 15},
	} {
		unique := c.key(0) != c.key(n/perKey)
		before := liveHeap()
		ix := newIndex(0, c.typ, c.kind)
		for i := 0; i < n; i++ {
			ix.insert(c.key(i), int64(i))
		}
		perRow := float64(liveHeap()-before) / n
		t.Logf("%s: %.1f B a row", c.name, perRow)
		if perRow > c.max {
			t.Errorf("%s: %.1f B of live heap a row, want ≤ %.0f", c.name, perRow, c.max)
		}
		if unique && ix.post.pos != nil {
			t.Errorf("%s: unique keys allocated %d positions", c.name, len(ix.post.pos))
		}
		var want []int64
		for i := 0; i < n; i++ {
			if c.key(i) == c.key(n/2) {
				want = append(want, int64(i))
			}
		}
		ids, _ := ix.get(c.key(n / 2))
		ids = slices.Clone(ids)
		if slices.Sort(ids); !slices.Equal(ids, want) {
			t.Fatalf("%s: key %d holds %v, want %v", c.name, n/2, ids, want)
		}
		runtime.KeepAlive(ix)
	}
	runtime.KeepAlive(names)
}

// vectorCaps returns the capacity of every storage vector of tb, by name.
func vectorCaps(tb *Table) map[string]int {
	caps := map[string]int{"begin": cap(tb.begin), "end": cap(tb.end), "gen": cap(tb.gen)}
	for c, col := range tb.cols {
		name := tb.schema.Columns[c].Name
		switch col.Kind {
		case KindInt, KindBool:
			caps[name+".Int"] = cap(col.Int)
		case KindFloat:
			caps[name+".Float"] = cap(col.Float)
		default:
			caps[name+".Str"] = cap(col.Str)
		}
		if col.Null != nil {
			caps[name+".Null"] = cap(col.Null)
		}
	}
	return caps
}

// TestCommitLeavesNoSlack: one commit of n rows into an empty table
// grows every storage vector once, to exactly n, a NULL column's Null
// vector included, so a bulk load leaves no append slack; one-row
// commits grow the vectors by append's rule, so 4 096 of them reallocate
// each vector a logarithmic number of times, not once a row.
func TestCommitLeavesNoSlack(t *testing.T) {
	const n = 1000
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{FloatValue(float64(i)), StringValue(fmt.Sprint(i % 7)), IntValue(int64(i))}
	}
	rows[n/2][0] = NullValue()
	bulk := NewTable("t", modelSchema)
	if err := dbOf(bulk).CommitDeltas([]TableDelta{{Table: "t", Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	caps := vectorCaps(bulk)
	if _, ok := caps["k.Null"]; !ok {
		t.Fatal("the NULL cell left column k without a Null vector")
	}
	for name, c := range caps {
		if c != n {
			t.Errorf("after one %d-row commit %s has capacity %d", n, name, c)
		}
	}

	one := NewTable("t", modelSchema)
	grew := map[string]int{}
	last := vectorCaps(one)
	for i := range 4096 {
		if _, err := insertRow(one, rows[i%n]); err != nil {
			t.Fatal(err)
		}
		now := vectorCaps(one)
		for name, c := range now {
			if c != last[name] {
				grew[name]++
			}
		}
		last = now
	}
	for name, g := range grew {
		if g > 32 {
			t.Errorf("4096 one-row commits reallocated %s %d times, want ≤ 32", name, g)
		}
	}
	if len(grew) == 0 {
		t.Fatal("4096 one-row commits grew no vector")
	}
}
