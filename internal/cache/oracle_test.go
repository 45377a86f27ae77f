package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"drugtree/internal/store"
)

// modelEntry is the oracle's view of one Put: the rows exactly as they
// were handed in, answered by filtering on every lookup.
type modelEntry struct {
	rows    []store.Row
	rangeOK bool // every range key is a non-NULL INT, in ascending order
	lastUse int  // the walk's step at the entry's last hit or Put
}

// answer is what a naive cache returns for [lo,hi] from this entry: the
// rows untouched on an exact hit, else those whose range key lies in
// [lo,hi]. Only a rangeOK entry is ever asked for a range it does not
// cover exactly.
func (m *modelEntry) answer(lo, hi int64, exact bool) []store.Row {
	if exact {
		return m.rows
	}
	var out []store.Row
	for _, r := range m.rows {
		if r[0].I >= lo && r[0].I <= hi {
			out = append(out, r)
		}
	}
	return out
}

// live snapshots the cache's entries per key, in lookup order.
func (c *Cache) live() map[Key][]*Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[Key][]*Entry{}
	for k, list := range c.entries {
		out[k] = append([]*Entry(nil), list...)
	}
	return out
}

func checkAccounting(t *testing.T, c *Cache, step int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for k, list := range c.entries {
		if len(list) == 0 {
			t.Fatalf("step %d: empty list kept for %v", step, k)
		}
		for _, e := range list {
			if e.bytes != batchBytes(e.Batch) {
				t.Fatalf("step %d: entry bytes %d, batch holds %d", step, e.bytes, batchBytes(e.Batch))
			}
			sum += e.bytes
		}
	}
	if c.used != sum || c.stats.BytesCached != sum {
		t.Fatalf("step %d: used=%d BytesCached=%d, live entries hold %d", step, c.used, c.stats.BytesCached, sum)
	}
	if c.used > c.capacity {
		t.Fatalf("step %d: used %d over capacity %d", step, c.used, c.capacity)
	}
}

func TestCacheAgainstNaiveModel(t *testing.T) {
	for _, exactOnly := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("exactOnly=%v/seed=%d", exactOnly, seed), func(t *testing.T) {
				runOracle(t, seed, exactOnly)
			})
		}
	}
}

func runOracle(t *testing.T, seed int64, exactOnly bool) {
	rng := rand.New(rand.NewSource(seed))
	c := New(6000)
	c.ExactOnly = exactOnly
	keys := []Key{
		{Relation: "tree_nodes", RangeCol: "pre"},
		{Relation: "tree_nodes", RangeCol: "pre", Residual: "is_leaf"},
		{Relation: "proteins", RangeCol: "length"},
	}
	model := map[*Entry]*modelEntry{}
	version := map[string]int64{"tree_nodes": 1, "proteins": 1}
	var subsumed, exactHits, refused, evicted, unsorted, nullKeyed int

	for step := 0; step < 4000; step++ {
		key := keys[rng.Intn(len(keys))]
		lo := int64(rng.Intn(180))
		hi := lo + int64(rng.Intn(40))
		switch op := rng.Intn(100); {
		case op < 35: // Put
			n := rng.Intn(int(hi-lo)+2) * (1 + rng.Intn(2))
			if rng.Intn(25) == 0 {
				n = 400 // over capacity on its own
			}
			m := &modelEntry{}
			nullKey := false
			for i := 0; i < n; i++ {
				pre := store.IntValue(lo + int64(rng.Intn(int(hi-lo)+1))) // with duplicates
				if rng.Intn(60) == 0 && n < 400 {
					pre, nullKey = store.NullValue(), true
				}
				m.rows = append(m.rows, store.Row{pre, store.StringValue(fmt.Sprintf("s%d-%d", step, i))})
			}
			// Producers deliver rows ordered on the key; one Put in four
			// keeps the draw's order, which the cache must serve exactly
			// only.
			if !nullKey && rng.Intn(4) != 0 {
				sort.SliceStable(m.rows, func(a, b int) bool { return m.rows[a][0].I < m.rows[b][0].I })
			}
			sorted := sort.SliceIsSorted(m.rows, func(a, b int) bool { return m.rows[a][0].I < m.rows[b][0].I })
			m.rangeOK = !nullKey && sorted
			e := &Entry{
				Key: key, Lo: lo, Hi: hi, Columns: []string{"pre", "name"},
				Batch:   store.ColBatchFromRows(testKinds, m.rows),
				Version: version[key.Relation],
			}
			before, evBefore := c.live(), c.Stats().Evictions
			c.Put(e)
			after := c.live()
			if e.bytes > c.capacity {
				refused++
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("step %d: refused oversize Put changed the cache", step)
				}
				break
			}
			m.lastUse = step
			model[e] = m
			if nullKey {
				nullKeyed++
			} else if !sorted {
				unsorted++
			}
			if (e.RangeIdx >= 0) != m.rangeOK {
				t.Fatalf("step %d: RangeIdx=%d for rangeOK=%v", step, e.RangeIdx, m.rangeOK)
			}
			// The naive LRU: drop what the Put replaces, then the least
			// recently used of the rest until the newcomer fits.
			var kept []*Entry
			used := int64(0)
			for k, list := range before {
				for _, x := range list {
					if k == key && x.Version == e.Version && e.Lo <= x.Lo && x.Hi <= e.Hi {
						continue
					}
					kept = append(kept, x)
					used += x.bytes
				}
			}
			sort.Slice(kept, func(a, b int) bool { return model[kept[a]].lastUse < model[kept[b]].lastUse })
			ev := 0
			for ; used+e.bytes > c.capacity; ev++ {
				used -= kept[ev].bytes
			}
			if got := int(c.Stats().Evictions - evBefore); got != ev {
				t.Fatalf("step %d: %d evictions, model says %d", step, got, ev)
			}
			kept = append(kept[ev:], e)
			cached := 0
			for _, list := range after {
				cached += len(list)
			}
			if cached != len(kept) {
				t.Fatalf("step %d: %d entries cached, model keeps %d", step, cached, len(kept))
			}
			for _, x := range kept {
				if !slices.Contains(after[x.Key], x) {
					t.Fatalf("step %d: [%d,%d] of %v dropped, model keeps it", step, x.Lo, x.Hi, x.Key)
				}
			}
			evicted += ev
		case op < 90: // Get or Covers
			if list := c.live()[key]; len(list) > 0 && rng.Intn(4) == 0 {
				e := list[rng.Intn(len(list))] // ask for exactly what is cached
				lo, hi = e.Lo, e.Hi
			}
			v := version[key.Relation]
			var want *Entry
			wantExact := false
			for _, e := range c.live()[key] {
				if e.Version != v || lo < e.Lo || e.Hi < hi {
					continue
				}
				ex := e.Lo == lo && e.Hi == hi
				if ex || (model[e].rangeOK && !exactOnly) {
					want, wantExact = e, ex
					break
				}
			}
			st0 := c.Stats()
			if op < 75 {
				cb, cols, ok := c.Get(key, lo, hi, v)
				if ok != (want != nil) {
					t.Fatalf("step %d: Get(%v,[%d,%d]) ok=%v, model says %v", step, key, lo, hi, ok, want != nil)
				}
				if ok {
					if got, exp := store.RowsFromColBatch(cb, nil), model[want].answer(lo, hi, wantExact); !reflect.DeepEqual(got, exp) {
						t.Fatalf("step %d: Get [%d,%d] from [%d,%d] exact=%v:\n got %v\nwant %v", step, lo, hi, want.Lo, want.Hi, wantExact, got, exp)
					}
					if cols[0] != "pre" {
						t.Fatalf("step %d: columns %v", step, cols)
					}
				}
			} else if ok := c.Covers(key, lo, hi, v); ok != (want != nil) {
				t.Fatalf("step %d: Covers(%v,[%d,%d])=%v, model says %v", step, key, lo, hi, ok, want != nil)
			}
			st1 := c.Stats()
			if want != nil {
				model[want].lastUse = step
			}
			switch {
			case want == nil:
				if st1.Misses != st0.Misses+1 || st1.Hits != st0.Hits {
					t.Fatalf("step %d: miss counted as %+v → %+v", step, st0, st1)
				}
			case wantExact:
				exactHits++
				if st1.Hits != st0.Hits+1 || st1.SubsumedHits != st0.SubsumedHits || st1.Misses != st0.Misses {
					t.Fatalf("step %d: exact hit counted as %+v → %+v", step, st0, st1)
				}
			default:
				subsumed++
				if st1.Hits != st0.Hits+1 || st1.SubsumedHits != st0.SubsumedHits+1 {
					t.Fatalf("step %d: subsumed hit counted as %+v → %+v", step, st0, st1)
				}
			}
			for _, e := range c.live()[key] {
				if e.Version != v && want == nil {
					t.Fatalf("step %d: stale entry survived a full scan", step)
				}
			}
		default: // a commit elsewhere: callers move to the next version
			version[key.Relation]++
		}
		checkAccounting(t, c, step)
	}
	if exactHits == 0 || refused == 0 || evicted == 0 || unsorted == 0 || nullKeyed == 0 || (subsumed == 0) != exactOnly {
		t.Fatalf("walk too tame: exact=%d subsumed=%d refused=%d evicted=%d unsorted=%d nullKeyed=%d",
			exactHits, subsumed, refused, evicted, unsorted, nullKeyed)
	}
}

// TestWindowsOutliveTheirEntries holds batches and windows handed out
// by Get while other goroutines replace, evict, invalidate and clear
// the entries behind them: the cells must not change (and, under -race,
// nothing may write them).
func TestWindowsOutliveTheirEntries(t *testing.T) {
	c := New(batchBytes(mkBatch(0, 299)) * 2)
	type held struct {
		cb   *store.ColBatch
		want []store.Row
	}
	var views []held
	hold := func(lo, hi int64) {
		cb, _, ok := c.Get(k1, lo, hi, 1)
		if !ok {
			t.Fatalf("Get [%d,%d] missed", lo, hi)
		}
		views = append(views, held{cb, store.RowsFromColBatch(cb, nil)})
	}
	c.Put(mkEntry(k1, 0, 299, 1))
	hold(0, 299)
	hold(17, 42)
	hold(250, 299)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0: // replaces narrower entries, evicts the rest
					c.Put(mkEntry(k1, 0, int64(100+rng.Intn(250)), 1))
				case 1:
					lo := int64(rng.Intn(250))
					c.Put(mkEntry(k1, lo, lo+int64(rng.Intn(40)), 1))
				case 2:
					c.Clear()
				default:
					c.Get(k1, 5, 9, 2) // stale on contact
				}
			}
		}(w)
	}
	for round := 0; round < 200; round++ {
		for _, v := range views {
			if got := store.RowsFromColBatch(v.cb, nil); !reflect.DeepEqual(got, v.want) {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d: a held window changed", round)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// A subsumed Get allocates the window's headers and nothing that grows
// with the rows it covers.
func TestSubsumedGetAllocsIndependentOfWindow(t *testing.T) {
	c := New(64 << 20)
	c.Put(mkEntry(k1, 0, 1<<16-1, 1))
	small := testing.AllocsPerRun(100, func() { c.Get(k1, 100, 163, 1) })
	large := testing.AllocsPerRun(100, func() { c.Get(k1, 100, 60000, 1) })
	if small != large || small > 2 {
		t.Fatalf("allocs per subsumed Get: %v for 64 rows, %v for 59901 rows", small, large)
	}
	if n := testing.AllocsPerRun(100, func() { c.Covers(k1, 100, 60000, 1) }); n != 0 {
		t.Fatalf("Covers allocates %v times", n)
	}
}
