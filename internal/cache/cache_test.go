package cache

import (
	"fmt"
	"testing"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

var testKinds = []store.Kind{store.KindInt, store.KindString}

func mkBatch(lo, hi int64) *store.ColBatch {
	var rows []store.Row
	for i := lo; i <= hi; i++ {
		rows = append(rows, store.Row{store.IntValue(i), store.StringValue(fmt.Sprintf("n%d", i))})
	}
	return store.ColBatchFromRows(testKinds, rows)
}

func mkEntry(key Key, lo, hi int64, version int64) *Entry {
	return &Entry{
		Key: key, Lo: lo, Hi: hi,
		Columns:  []string{"pre", "name"},
		Batch:    mkBatch(lo, hi),
		RangeIdx: 0,
		Version:  version,
	}
}

var k1 = Key{Relation: "tree_nodes", RangeCol: "pre", Residual: ""}

func TestCacheExactHit(t *testing.T) {
	c := New(1 << 20)
	c.Put(mkEntry(k1, 10, 20, 1))
	cb, cols, ok := c.Get(k1, 10, 20, 1)
	if !ok || cb.Rows != 11 || cols[0] != "pre" {
		t.Fatalf("exact hit: ok=%v rows=%d", ok, cb.Rows)
	}
	st := c.Stats()
	if st.Hits != 1 || st.SubsumedHits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheSubsumedHit(t *testing.T) {
	c := New(1 << 20)
	c.Put(mkEntry(k1, 0, 100, 1))
	cb, _, ok := c.Get(k1, 40, 50, 1)
	if !ok {
		t.Fatal("subsumed query missed")
	}
	if cb.Rows != 11 || cb.Cols[0].Len() != 11 || cb.Cols[1].Len() != 11 {
		t.Fatalf("subsumed rows = %d, want 11", cb.Rows)
	}
	for i, pre := range cb.Cols[0].Int {
		if pre != int64(40+i) || cb.Cols[1].Str[i] != fmt.Sprintf("n%d", pre) {
			t.Fatalf("row %d = (%d, %q), want pre %d", i, pre, cb.Cols[1].Str[i], 40+i)
		}
	}
	if st := c.Stats(); st.SubsumedHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheMissOutsideRange(t *testing.T) {
	c := New(1 << 20)
	c.Put(mkEntry(k1, 10, 20, 1))
	if _, _, ok := c.Get(k1, 15, 25, 1); ok {
		t.Fatal("partially-covered query hit")
	}
	if _, _, ok := c.Get(k1, 0, 5, 1); ok {
		t.Fatal("disjoint query hit")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheKeyIsolation(t *testing.T) {
	c := New(1 << 20)
	c.Put(mkEntry(k1, 0, 100, 1))
	k2 := Key{Relation: "tree_nodes", RangeCol: "pre", Residual: "is_leaf = true"}
	if _, _, ok := c.Get(k2, 10, 20, 1); ok {
		t.Fatal("different residual hit the same entry")
	}
	k3 := Key{Relation: "other", RangeCol: "pre"}
	if _, _, ok := c.Get(k3, 10, 20, 1); ok {
		t.Fatal("different relation hit the same entry")
	}
}

func TestCacheVersionInvalidation(t *testing.T) {
	c := New(1 << 20)
	c.Put(mkEntry(k1, 0, 100, 1))
	if _, _, ok := c.Get(k1, 10, 20, 2); ok {
		t.Fatal("stale entry served")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("stale entry not removed")
	}
}

func TestCachePutCoversNarrower(t *testing.T) {
	c := New(1 << 20)
	c.Put(mkEntry(k1, 40, 50, 1))
	c.Put(mkEntry(k1, 0, 100, 1))
	if c.Len() != 1 {
		t.Fatalf("covered narrower entry kept: %d entries", c.Len())
	}
}

// Capacity fits two entries: each Put past that evicts the entry
// touched longest ago, and a Get or a Covers hit counts as a touch.
func TestCacheEvictionLRUOrder(t *testing.T) {
	keys := []Key{k1, {Relation: "a", RangeCol: "x"}, {Relation: "b", RangeCol: "x"}, {Relation: "c", RangeCol: "x"}}
	c := New(batchBytes(mkBatch(0, 30))*2 + 100)
	resident := func() (in []int) {
		for i, k := range keys {
			if c.Covers(k, 0, 30, 1) {
				in = append(in, i)
			}
		}
		return in
	}
	c.Put(mkEntry(keys[0], 0, 30, 1))
	c.Put(mkEntry(keys[1], 0, 30, 1))
	if _, _, ok := c.Get(keys[0], 0, 30, 1); !ok { // 0 is now newer than 1
		t.Fatal("entry 0 missed")
	}
	c.Put(mkEntry(keys[2], 0, 30, 1)) // evicts 1
	if !c.Covers(keys[0], 5, 10, 1) { // 0 is now newer than 2
		t.Fatal("entry 0 not covered")
	}
	c.Put(mkEntry(keys[3], 0, 30, 1)) // evicts 2
	st := c.Stats()
	if got := resident(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("resident entries %v, want [0 3]", got)
	}
	if st.Evictions != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheOversizeEntryRejected(t *testing.T) {
	c := New(100)
	c.Put(mkEntry(k1, 0, 1000, 1))
	if c.Len() != 0 {
		t.Fatal("oversize entry cached")
	}
}

func TestCacheClear(t *testing.T) {
	c := New(1 << 20)
	c.Put(mkEntry(k1, 0, 10, 1))
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("clear incomplete")
	}
	if _, _, ok := c.Get(k1, 0, 10, 1); ok {
		t.Fatal("cleared entry served")
	}
}

// --- Prefetcher ---

// prefTree builds root(a(a1,a2,a3), b(b1,b2), c), breadth-first, and
// maps each name to its node: a name lookup, as Index renumbers the
// nodes in preorder.
func prefTree(t *testing.T) (*phylo.Tree, map[string]phylo.NodeID) {
	t.Helper()
	tr := phylo.NewTree()
	build := map[string]phylo.NodeID{}
	var err error
	if build["root"], err = tr.AddNode("root", phylo.None, 0); err != nil {
		t.Fatal(err)
	}
	add := func(name string, parent string) {
		id, err := tr.AddNode(name, build[parent], 1)
		if err != nil {
			t.Fatal(err)
		}
		build[name] = id
	}
	add("a", "root")
	add("b", "root")
	add("c", "root")
	add("a1", "a")
	add("a2", "a")
	add("a3", "a")
	add("b1", "b")
	add("b2", "b")
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
	ids := map[string]phylo.NodeID{}
	for name := range build {
		ids[name], _ = tr.NodeByName(name)
	}
	return tr, ids
}

func TestPrefetcherZoomSuggestsChildren(t *testing.T) {
	tr, ids := prefTree(t)
	p := NewPrefetcher()
	p.RecordVisit(ids["a"])
	sugg := p.Suggest(tr)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	// All three children must appear among the suggestions.
	want := map[phylo.NodeID]bool{ids["a1"]: true, ids["a2"]: true, ids["a3"]: true}
	found := 0
	for _, s := range sugg {
		if want[s] {
			found++
		}
	}
	if found < 3 {
		t.Fatalf("children missing from suggestions: %v", sugg)
	}
}

func TestPrefetcherPanDirection(t *testing.T) {
	tr, ids := prefTree(t)
	p := NewPrefetcher()
	p.RecordVisit(ids["a"])
	p.RecordVisit(ids["b"]) // panning a→b ⇒ c is next
	sugg := p.Suggest(tr)
	if len(sugg) == 0 || sugg[0] != ids["c"] {
		t.Fatalf("pan suggestion = %v, want c first", sugg)
	}
	// Reverse pan: c→b ⇒ a next.
	p.Reset()
	p.RecordVisit(ids["c"])
	p.RecordVisit(ids["b"])
	sugg = p.Suggest(tr)
	if len(sugg) == 0 || sugg[0] != ids["a"] {
		t.Fatalf("reverse pan suggestion = %v, want a first", sugg)
	}
}

func TestPrefetcherLeafFallsBackToSiblings(t *testing.T) {
	tr, ids := prefTree(t)
	p := NewPrefetcher()
	p.RecordVisit(ids["a2"])
	sugg := p.Suggest(tr)
	// a2 has no children: expect siblings (a3 or a1) and parent a.
	if len(sugg) == 0 {
		t.Fatal("no suggestions for leaf")
	}
	seen := map[phylo.NodeID]bool{}
	for _, s := range sugg {
		seen[s] = true
	}
	if !seen[ids["a3"]] && !seen[ids["a1"]] {
		t.Fatalf("no sibling suggested: %v", sugg)
	}
}

func TestPrefetcherBounded(t *testing.T) {
	tr, ids := prefTree(t)
	p := NewPrefetcher()
	p.MaxSuggestions = 2
	p.RecordVisit(ids["a"])
	if sugg := p.Suggest(tr); len(sugg) > 2 {
		t.Fatalf("suggestions = %d > 2", len(sugg))
	}
}

func TestPrefetcherEmptyHistory(t *testing.T) {
	tr, _ := prefTree(t)
	p := NewPrefetcher()
	if sugg := p.Suggest(tr); sugg != nil {
		t.Fatalf("suggestions without history: %v", sugg)
	}
}

func TestPrefetcherHistoryBounded(t *testing.T) {
	tr, ids := prefTree(t)
	p := NewPrefetcher()
	for i := 0; i < 100; i++ {
		p.RecordVisit(ids["a"])
	}
	if got := len(p.history); got > 8 {
		t.Fatalf("history length = %d", got)
	}
	_ = tr
}

// TestBatchBytesChargesCodes pins what a column costs an entry on a
// 64-bit host: its 136-byte store.Col header, and then a coded column
// its code vector, 8 B a cell, and no string bytes, since its names are
// the dictionary's; the same names held as a STRING column cost a
// 16-byte header a cell and their bytes. An entry with no column costs
// its Entry and its ColBatch, 160 B.
func TestBatchBytesChargesCodes(t *testing.T) {
	const n = 64
	coded, plain := store.NewDenseCol(store.KindCode, n), store.NewDenseCol(store.KindString, n)
	for i := range n {
		coded.SetInt(i, int64(i%5+1))
		plain.SetValue(i, store.StringValue(fmt.Sprintf("name-%d", i%5)))
	}
	empty := batchBytes(&store.ColBatch{})
	if empty != 160 {
		t.Errorf("an entry with no column is charged %d B, want 160", empty)
	}
	for _, c := range []struct {
		name string
		col  *store.Col
		want int64
	}{
		{"coded", coded, 136 + n + 8*n},
		{"plain", plain, 136 + n + 16*n + 6*n},
	} {
		if got := batchBytes(&store.ColBatch{Rows: n, Cols: []store.Col{*c.col}}) - empty; got != c.want {
			t.Errorf("a %s column of %d names is charged %d B, want %d", c.name, n, got, c.want)
		}
	}
}
