package store

import (
	"fmt"
	"math/rand"
	"runtime"
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
// and a single posting costs no slice of its own.
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
		bt := newBTree[int64]()
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
		for leaf := bt.edgeLeaf(false); leaf != nil; leaf = leaf.next {
			if leaf.many != nil {
				t.Fatalf("%s load: a leaf of unique keys allocated postings slices", name)
			}
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

// TestIndexBytesPerKey is the tier-1 guard on the index forms alone,
// one row a key: a B+-tree over a dense INT column, loaded in key order
// as CreateIndex loads it, costs at most 20 bytes a key (8 of key, 8 of
// row ID, the rest node headers and interior nodes), and a hash index
// over 100 k unique strings at most 24 (a 16-byte entry at the load a
// power-of-two table has there), the strings themselves — the column's —
// not counted.
func TestIndexBytesPerKey(t *testing.T) {
	const n = 100000
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
	} {
		before := liveHeap()
		ix := newIndex(0, c.typ, c.kind, n)
		for i := 0; i < n; i++ {
			ix.insert(c.key(i), int64(i))
		}
		perKey := float64(liveHeap()-before) / n
		t.Logf("%s: %.1f B a key", c.name, perKey)
		if perKey > c.max {
			t.Errorf("%s: %.1f B of live heap a key, want ≤ %.0f", c.name, perKey, c.max)
		}
		if ids, _ := ix.get(c.key(n / 2)); len(ids) != 1 || ids[0] != n/2 {
			t.Fatalf("%s: key %d holds %v", c.name, n/2, ids)
		}
		runtime.KeepAlive(ix)
	}
	runtime.KeepAlive(names)
}
