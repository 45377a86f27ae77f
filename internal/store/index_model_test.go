package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// The index model is a slice of (key, id) pairs kept sorted by
// store.Compare: everything an index answers — point probes, range
// walks in both directions and counts, distinct keys, Min and Max — is
// recomputed from it by linear passes and compared, for every index form
// over every column kind, NULL keys mixed in.

type indexEntry struct {
	key Value
	id  int64
}

type indexModel struct {
	entries []indexEntry // sorted by (key, id)
}

func (m *indexModel) insert(k Value, id int64) {
	i := sort.Search(len(m.entries), func(i int) bool {
		c := Compare(m.entries[i].key, k)
		return c > 0 || c == 0 && m.entries[i].id >= id
	})
	m.entries = append(m.entries, indexEntry{})
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = indexEntry{k, id}
}

func (m *indexModel) remove(i int) indexEntry {
	e := m.entries[i]
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
	return e
}

// equal lists the IDs filed under keys equal to k.
func (m *indexModel) equal(k Value) []int64 {
	var out []int64
	for _, e := range m.entries {
		if Equal(e.key, k) {
			out = append(out, e.id)
		}
	}
	return out
}

// groups lists the postings of the non-NULL keys in [lo, hi], one sorted
// group per distinct key, in key order.
func (m *indexModel) groups(lo, hi *Value, desc bool) [][]int64 {
	var out [][]int64
	for i, e := range m.entries {
		if !inRange(e.key, lo, hi) {
			continue
		}
		if i > 0 && len(out) > 0 && Equal(m.entries[i-1].key, e.key) {
			out[len(out)-1] = append(out[len(out)-1], e.id)
		} else {
			out = append(out, []int64{e.id})
		}
	}
	if desc {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// minMax reads a B+-tree or rank index's smallest and largest key as
// Values.
func (ix *index) minMax() (lo, hi Value, ok bool) {
	if ix.rank != nil {
		first, last := -1, -1
		for k, list := range ix.post.lists {
			if len(list) > 0 {
				if first < 0 {
					first = k
				}
				last = k
			}
		}
		return IntValue(int64(first)), IntValue(int64(last)), first >= 0
	}
	switch {
	case ix.floats != nil:
		a, ok := edgeKey(ix.floats, false)
		b, _ := edgeKey(ix.floats, true)
		return FloatValue(a), FloatValue(b), ok
	case ix.strs != nil:
		a, ok := edgeKey(ix.strs, false)
		b, _ := edgeKey(ix.strs, true)
		return StringValue(a), StringValue(b), ok
	}
	a, ok := edgeKey(ix.ints, false)
	b, _ := edgeKey(ix.ints, true)
	return Value{K: ix.kind, I: a}, Value{K: ix.kind, I: b}, ok
}

// check verifies the probe-run bookkeeping of the table: every entry
// reachable from its home without crossing an empty position (what
// backward-shift deletion must preserve), no hash filed twice, and the
// load inside its bounds. Its lists are the index's check.
func (h *hashIndex) check() error {
	size := len(h.hashes)
	mask, used := size-1, 0
	seen := map[uint64]bool{}
	for i, x := range h.hashes {
		if x == 0 {
			if h.ids[i] != 0 {
				return fmt.Errorf("empty position %d holds id %d", i, h.ids[i])
			}
			continue
		}
		if used++; seen[x] {
			return fmt.Errorf("hash %x filed twice", x)
		}
		seen[x] = true
		for j := h.home(x); j != i; j = (j + 1) & mask {
			if h.hashes[j] == 0 {
				return fmt.Errorf("position %d (home %d) lies beyond the empty position %d", i, h.home(x), j)
			}
		}
	}
	switch {
	case used != h.used:
		return fmt.Errorf("%d positions occupied, used = %d", used, h.used)
	case used*8 > size*7:
		return fmt.Errorf("%d of %d positions occupied: over 7/8", used, size)
	case size > hashMinSize && used*4 < size:
		return fmt.Errorf("%d of %d positions occupied: under 1/4", used, size)
	}
	return nil
}

// leafIDs calls fn with each leaf's inline places and its count of
// listed keys.
func leafIDs[K btreeKey](t *btree[K], fn func(ids []int64, listed int) error) error {
	for n := t.edgeLeaf(false); n != nil; n = n.next {
		if err := fn(n.ids, n.listed); err != nil {
			return err
		}
	}
	return nil
}

// check verifies the index's postings: each listed slot's recorded
// position holds its ID; a list a table entry or a leaf names holds two
// IDs or more and is named once, and a leaf counts the lists it names;
// each freed list number holds an empty list, once; and every list is
// named, free, or fixed (a B+-tree index's NULL list, a rank index's
// ranks).
func (ix *index) check() error {
	p := &ix.post
	for m, list := range p.lists {
		for j, id := range list {
			at := 0 // a slot past the end of pos is at 0
			if s := int(uint32(id)); s < len(p.pos) {
				at = int(p.pos[s])
			}
			if at != j {
				return fmt.Errorf("list %d: id %d sits at %d, its position says %d", m, id, j, at)
			}
		}
	}
	named := map[int64]bool{}
	name := func(ids []int64) (n int, err error) {
		for _, id := range ids {
			switch {
			case id >= 0:
				continue
			case named[^id]:
				return n, fmt.Errorf("list %d named twice", ^id)
			case ^id >= int64(len(p.lists)) || len(p.lists[^id]) < 2:
				return n, fmt.Errorf("a named list %d holds under two ids", ^id)
			}
			named[^id] = true
			n++
		}
		return n, nil
	}
	leaf := func(ids []int64, listed int) error {
		n, err := name(ids)
		if err == nil && n != listed {
			err = fmt.Errorf("a leaf names %d lists and counts %d", n, listed)
		}
		return err
	}
	fixed, err := 1, error(nil)
	switch {
	case ix.rank != nil:
		fixed = len(p.lists)
	case ix.hash != nil:
		fixed = 0
		_, err = name(ix.hash.ids)
	case ix.floats != nil:
		err = leafIDs(ix.floats, leaf)
	case ix.strs != nil:
		err = leafIDs(ix.strs, leaf)
	default:
		err = leafIDs(ix.ints, leaf)
	}
	if err != nil {
		return err
	}
	freed := map[int32]bool{}
	for _, m := range p.free {
		if freed[m] || len(p.lists[m]) != 0 || int(m) < fixed {
			return fmt.Errorf("list %d freed twice, fixed, or holding %d ids", m, len(p.lists[m]))
		}
		freed[m] = true
	}
	if fixed+len(named)+len(p.free) != len(p.lists) {
		return fmt.Errorf("%d fixed + %d named + %d free lists != %d", fixed, len(named), len(p.free), len(p.lists))
	}
	return nil
}

// indexKeyPools are the awkward keys of each kind; generated keys of the
// same kind join them to drive growth.
var indexKeyPools = map[Kind][]Value{
	KindInt: {IntValue(0), IntValue(1), IntValue(2), IntValue(3), IntValue(-1), IntValue(-7), IntValue(64), IntValue(65),
		IntValue(math.MinInt64), IntValue(math.MaxInt64)},
	KindFloat: {FloatValue(math.NaN()), FloatValue(math.Copysign(0, -1)), FloatValue(0), FloatValue(math.Inf(1)), FloatValue(math.Inf(-1)),
		FloatValue(0.5), FloatValue(1), FloatValue(1.5), FloatValue(2), FloatValue(-1.25),
		FloatValue(math.SmallestNonzeroFloat64), FloatValue(math.MaxFloat64), FloatValue(-math.MaxFloat64)},
	KindString: {StringValue(""), StringValue("a"), StringValue("aa"), StringValue("aaa"), StringValue("ab"), StringValue("b"),
		StringValue("kinase"), StringValue("kinase-1"), StringValue("kinase-10"), StringValue("\x00"), StringValue("é")},
	KindBool: {BoolValue(false), BoolValue(true)},
}

// strangers are probe values of a kind other than the column's: equal
// to a key only across INT and FLOAT, and as a range bound worth what
// store.Compare says.
var strangers = []Value{NullValue(), IntValue(1), IntValue(2), IntValue(-7), FloatValue(2), FloatValue(2.5), FloatValue(-7.5), FloatValue(64),
	FloatValue(math.NaN()), FloatValue(math.Inf(1)), FloatValue(math.Inf(-1)), FloatValue(1e30), StringValue("a"), StringValue(""), BoolValue(true)}

func randomKey(rng *rand.Rand, k Kind, spread int) Value {
	if rng.Intn(8) == 0 {
		return NullValue()
	}
	pool := indexKeyPools[k]
	if k == KindBool || rng.Intn(3) == 0 {
		return pool[rng.Intn(len(pool))]
	}
	n := rng.Intn(spread)
	switch k {
	case KindInt:
		return IntValue(int64(n) - int64(spread)/2)
	case KindFloat:
		return FloatValue(float64(n)/4 - float64(spread)/8)
	}
	return StringValue(fmt.Sprintf("k%05d", n))
}

// verifyIndex compares every answer of ix with the model.
func verifyIndex(ix *index, m *indexModel, rng *rand.Rand) error {
	keyOf := map[int64]Value{}
	for _, e := range m.entries {
		keyOf[e.id] = e.key
	}
	probes := append([]Value(nil), strangers...)
	probes = append(probes, indexKeyPools[ix.kind]...)
	for i := 0; i < 12 && len(m.entries) > 0; i++ {
		probes = append(probes, m.entries[rng.Intn(len(m.entries))].key)
	}
	for _, p := range probes {
		ids, exact := ix.get(p)
		if !exact { // hash candidates share the hash; the reader rechecks the cell
			var kept []int64
			for _, id := range ids {
				if k, ok := keyOf[id]; !ok {
					return fmt.Errorf("probe %v: candidate %d is not indexed", p, id)
				} else if Equal(k, p) {
					kept = append(kept, id)
				}
			}
			ids = kept
		}
		if got, want := sortedIDs(ids), m.equal(p); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("probe %v: ids %v, model %v", p, got, want)
		}
	}
	// A colliding hash table counts its hashes, not the keys they stand
	// for; no one asks a rank index.
	if (ix.hash == nil || ix.hash.hashOf == nil) && ix.rank == nil {
		if got, want := ix.distinct(), m.distinctKeys(); got != want {
			return fmt.Errorf("%d distinct keys, model %d", got, want)
		}
	}
	if err := ix.check(); err != nil {
		return err
	}
	if ix.hash != nil {
		return ix.hash.check()
	}
	bound := func() *Value {
		if rng.Intn(5) == 0 {
			return nil
		}
		return &probes[rng.Intn(len(probes))]
	}
	for i := 0; i < 24; i++ {
		lo, hi, desc := bound(), bound(), rng.Intn(2) == 0
		var got [][]int64
		ix.walk(lo, hi, desc, func(ids []int64) bool {
			got = append(got, sortedIDs(ids))
			return true
		})
		if want := m.groups(lo, hi, desc); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("walk [%v, %v] desc=%v:\ngot  %v\nwant %v", lo, hi, desc, got, want)
		}
		for _, max := range []int{0, 1, 3, 1 + rng.Intn(80), 200} {
			if got, want := ix.count(lo, hi, max), countByWalk(ix, lo, hi, max); got != want {
				return fmt.Errorf("count [%v, %v] max %d = %d, the per-key walk %d", lo, hi, max, got, want)
			}
		}
		stopAt, seen := 1+rng.Intn(3), 0
		ix.walk(lo, hi, desc, func([]int64) bool { seen++; return seen < stopAt })
		if want := min(stopAt, len(got)); seen != want {
			return fmt.Errorf("walk [%v, %v] stopped after %d keys, want %d", lo, hi, seen, want)
		}
	}
	lo, hi, ok := ix.minMax()
	all := m.groups(nil, nil, false)
	if ok != (len(all) > 0) {
		return fmt.Errorf("Min/Max ok = %v with %d keys", ok, len(all))
	}
	if ok {
		if got, want := sortedIDs(first(ix.get(lo))), all[0]; fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("Min = %v holding %v, model's first key holds %v", lo, got, want)
		}
		if got, want := sortedIDs(first(ix.get(hi))), all[len(all)-1]; fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("Max = %v holding %v, model's last key holds %v", hi, got, want)
		}
	}
	return nil
}

func first(ids []int64, _ bool) []int64 { return ids }

// countByWalk is the per-key count index.count replaced, kept as its
// oracle: an ascending walk summing each key's postings, stopping at the
// first key that takes the sum past max (≤ 0 never stops).
func countByWalk(ix *index, lo, hi *Value, max int) int {
	n := 0
	ix.walk(lo, hi, false, func(ids []int64) bool {
		n += len(ids)
		return max <= 0 || n <= max
	})
	return n
}

// distinctKeys is the brute-force count of the model's distinct non-NULL
// keys.
func (m *indexModel) distinctKeys() int {
	n := 0
	for i, e := range m.entries {
		if !e.key.IsNull() && (i == 0 || !Equal(m.entries[i-1].key, e.key)) {
			n++
		}
	}
	return n
}

// modelKey is what an index files cell v under, as the model holds it:
// v itself, or for a rank index its rank as an INT; ok is false for a
// cell with no posting.
func modelKey(ix *index, v Value) (Value, bool) {
	if ix.rank == nil {
		return v, true
	}
	k, ok := ix.rankOf(v)
	return IntValue(int64(k)), ok
}

// testRanks ranks the model's STRING keys for the rank form: "k%05d"
// is a quarter of its number unless that number is 4 mod 9, "" shares
// rank 0 with "k00000", "kinase" is the last rank, and every other cell
// has no rank.
const testRanks = 1001

func testRank(s string) (int64, bool) {
	var n int64
	switch _, err := fmt.Sscanf(s, "k%05d", &n); {
	case s == "":
		return 0, true
	case s == "kinase":
		return testRanks - 1, true
	case err != nil || len(s) != 6:
		return 0, false
	}
	return n / 4, n%9 != 4
}

// TestIndexMatchesModel drives each index form over each column kind
// through a seeded grow / churn / drain schedule — duplicate-heavy at
// first, then spread wide so the hash table doubles and B+-tree leaves
// split, then deleted down to nothing so the table halves back and
// leaves stand empty — and compares every answer with the sorted-slice
// model along the way. The colliding configuration replaces the hash
// function with one of five values (zero among them), so unequal keys
// share one table entry and one postings list. The B+-tree's NULL rows
// are one list; btree-nulls turns a further third of its keys to NULL
// so that list grows long and churns. The rank form files a STRING
// column by testRank, the model holding each row's rank, and a cell
// with no rank goes to the index (which files nothing) but not to the
// model.
func TestIndexMatchesModel(t *testing.T) {
	collide := func(v Value) uint64 { return v.Hash() % 5 }
	for _, cfg := range []struct {
		name   string
		typ    IndexType
		hashOf func(Value) uint64
		nulls  int   // > 0: one more key in nulls is NULL
		rank   bool  // a rank index over STRING cells
		seed   int64 // added to the kind's seed
	}{
		{"btree", IndexBTree, nil, 0, false, 0},
		{"btree-nulls", IndexBTree, nil, 3, false, 101},
		{"hash", IndexHash, nil, 0, false, 0},
		{"hash-colliding", IndexHash, collide, 0, false, 0},
		{"rank", IndexBTree, nil, 0, true, 202},
	} {
		for _, kind := range []Kind{KindInt, KindFloat, KindString, KindBool} {
			if cfg.rank && kind != KindString {
				continue
			}
			t.Run(fmt.Sprintf("%s/%v", cfg.name, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(kind)*31 + int64(cfg.typ) + cfg.seed))
				ix, m := newIndex(0, cfg.typ, kind), &indexModel{}
				if cfg.rank {
					ix = newRankIndex(0, testRanks, testRank, nil)
				}
				if ix.hash != nil {
					ix.hash.hashOf = cfg.hashOf
				}
				cells := map[int64]Value{} // by ID: the cell a model entry was filed from
				nextID, peak := int64(0), hashMinSize
				step := func(insertOdds, spread int) {
					if rng.Intn(100) < insertOdds || len(m.entries) == 0 {
						k := randomKey(rng, kind, spread)
						if cfg.nulls > 0 && rng.Intn(cfg.nulls) == 0 {
							k = NullValue()
						}
						// IDs look like the table's: a generation over a slot.
						id := nextID<<32 | nextID
						nextID++
						ix.insert(k, id)
						if key, ok := modelKey(ix, k); ok {
							m.insert(key, id)
							cells[id] = k
						}
					} else {
						e := m.remove(rng.Intn(len(m.entries)))
						k := cells[e.id]
						ix.remove(k, e.id)
						ix.remove(k, e.id)       // a second removal finds nothing
						ix.remove(k, 1<<62|e.id) // nor does an ID never filed
					}
					if ix.hash != nil {
						peak = max(peak, len(ix.hash.hashes))
					}
				}
				for phase, p := range []struct{ steps, insertOdds, spread, every int }{
					{400, 60, 8, 20},      // few keys, long postings
					{3000, 85, 4000, 250}, // growth
					{2000, 50, 4000, 250}, // churn at size
					{6000, 8, 4000, 250},  // drain
				} {
					for i := 0; i < p.steps; i++ {
						step(p.insertOdds, p.spread)
						if i%p.every == 0 || len(m.entries) < 4 {
							if err := verifyIndex(ix, m, rng); err != nil {
								t.Fatalf("phase %d step %d (%d entries): %v", phase, i, len(m.entries), err)
							}
						}
					}
				}
				for len(m.entries) > 0 {
					e := m.remove(len(m.entries) - 1)
					ix.remove(cells[e.id], e.id)
				}
				if err := verifyIndex(ix, m, rng); err != nil {
					t.Fatalf("empty: %v", err)
				}
				if ix.hash != nil && kind != KindBool && cfg.hashOf == nil {
					if peak < 8*hashMinSize || len(ix.hash.hashes) != hashMinSize {
						t.Fatalf("table peaked at %d positions and ends at %d, want growth and a return to %d", peak, len(ix.hash.hashes), hashMinSize)
					}
				}
			})
		}
	}
}

// TestIndexPostingTransitions walks one key through 1 → 2 → many → 1 →
// 0 postings in each index form and checks where the postings live at
// each stage: in a hash table or a B+-tree, inline while there is one,
// in a list from the second on, inline again (the list freed) when one
// remains; a B+-tree's NULL rows and a rank's rows always in their
// list. The index's check runs at every stage.
func TestIndexPostingTransitions(t *testing.T) {
	rank := func(s string) (int64, bool) {
		k, ok := map[string]int64{"kinase": 3, "ligase": 5}[s]
		return k, ok
	}
	for _, form := range []struct {
		name       string
		ix         *index
		key, other Value // filed
		probe      Value // what reads key
		listed     bool  // key's rows always sit in a list
	}{
		{"btree", newIndex(0, IndexBTree, KindString), StringValue("kinase"), StringValue("ligase"), StringValue("kinase"), false},
		{"hash", newIndex(0, IndexHash, KindString), StringValue("kinase"), StringValue("ligase"), StringValue("kinase"), false},
		{"btree-null", newIndex(0, IndexBTree, KindString), NullValue(), StringValue("ligase"), NullValue(), true},
		{"rank", newRankIndex(0, 8, rank, nil), StringValue("kinase"), StringValue("ligase"), IntValue(3), true},
	} {
		ix, key := form.ix, form.key
		inline := func() bool {
			switch {
			case form.listed:
				return false
			case ix.hash != nil:
				pos, found := ix.hash.find(ix.hash.hash(key))
				return found && ix.hash.ids[pos] >= 0
			}
			leaf := ix.strs.leafFor(key.S)
			return leaf.ids[findKey(leaf, key.S)] >= 0
		}
		expect := func(stage string, wantInline bool, want ...int64) {
			t.Helper()
			got, _ := ix.get(form.probe)
			if fmt.Sprint(sortedIDs(got)) != fmt.Sprint(want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("%s %s: postings %v, want %v", form.name, stage, got, want)
			}
			if len(want) > 0 && inline() != (wantInline && !form.listed) {
				t.Fatalf("%s %s: inline = %v, want %v", form.name, stage, !wantInline, wantInline)
			}
			probe, _ := modelKey(ix, form.other)
			if ids, _ := ix.get(probe); len(ids) != 1 || ids[0] != 99 {
				t.Fatalf("%s %s: the neighbouring key holds %v", form.name, stage, ids)
			}
			if err := ix.check(); err != nil {
				t.Fatalf("%s %s: %v", form.name, stage, err)
			}
		}
		ix.insert(form.other, 99)
		ix.insert(key, 1)
		expect("one", true, 1)
		ix.insert(key, 2)
		expect("two", false, 1, 2)
		for id := int64(3); id <= 9; id++ {
			ix.insert(key, id)
		}
		expect("many", false, 1, 2, 3, 4, 5, 6, 7, 8, 9)
		for id := int64(9); id >= 3; id-- {
			ix.remove(key, id)
		}
		expect("two again", false, 1, 2)
		ix.remove(key, 1)
		expect("one again", true, 2)
		ix.remove(key, 2)
		expect("none", true)
		if want := map[bool]int{false: 1, true: 0}[form.listed]; len(ix.post.free) != want {
			t.Fatalf("%s: %d free lists after the key emptied, want %d", form.name, len(ix.post.free), want)
		}
	}
}

// TestUniqueKeysAllocateNoPositions files and churns one row a key
// through each form — a B+-tree's one NULL row and one row a rank among
// them — and demands that no form allocates positions or lists beyond
// the fixed ones: only repeated keys pay for them.
func TestUniqueKeysAllocateNoPositions(t *testing.T) {
	const n = 3000
	rank := func(s string) (int64, bool) {
		var k int64
		_, err := fmt.Sscanf(s, "r%d", &k)
		return k, err == nil
	}
	for _, form := range []struct {
		name string
		ix   *index
		key  func(i int) Value
	}{
		{"btree/INT", newIndex(0, IndexBTree, KindInt), func(i int) Value { return IntValue(int64(i)) }},
		{"btree/STRING", newIndex(0, IndexBTree, KindString), func(i int) Value { return StringValue(fmt.Sprintf("r%d", i)) }},
		{"hash/STRING", newIndex(0, IndexHash, KindString), func(i int) Value { return StringValue(fmt.Sprintf("r%d", i)) }},
		{"rank", newRankIndex(0, n, rank, nil), func(i int) Value { return StringValue(fmt.Sprintf("r%d", i)) }},
	} {
		ix := form.ix
		key := func(i int) Value {
			if i == n/2 && form.name != "rank" {
				return NullValue()
			}
			return form.key(i)
		}
		for i := range n {
			ix.insert(key(i), int64(i))
		}
		for i := 0; i < n; i += 3 { // a row retired and its slot refilled by the next generation
			ix.remove(key(i), int64(i))
			ix.insert(key(i), 1<<32|int64(i))
		}
		if err := ix.check(); err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		fixed := map[bool]int{false: 1, true: n}[ix.rank != nil]
		if ix.hash != nil {
			fixed = 0
		}
		if ix.post.pos != nil || len(ix.post.lists) != fixed {
			t.Fatalf("%s: %d positions and %d lists, want none and %d", form.name, len(ix.post.pos), len(ix.post.lists), fixed)
		}
	}
}

// newRankIndex returns an empty rank index over column ci with ranks
// [0, ranks), as CreateRankIndex builds one.
func newRankIndex(ci, ranks int, rank func(string) (int64, bool), source any) *index {
	return &index{column: ci, typ: IndexBTree, kind: KindInt, rank: rank, source: source, post: postings{lists: make([][]int64, ranks)}}
}

// TestBackfillSizesListsOnce pins what the backfill CreateIndex and
// CreateRankIndex share: every stored row filed, retired ones included,
// each under its key; each fixed list (a rank, the NULL list)
// allocated once at its length; a hash table fitted to its distinct
// hashes; an all-unique column with no positions; and every form's
// postings consistent.
func TestBackfillSizesListsOnce(t *testing.T) {
	const n, names = 4000, 50
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "name", Kind: KindString},
		Column{Name: "score", Kind: KindFloat}))
	if err != nil {
		t.Fatal(err)
	}
	rows, byName := make([]Row, n), map[string][]int64{}
	for i := range rows {
		name, score := fmt.Sprintf("k%05d", 4*(i%names)), FloatValue(float64(i%7))
		if i%100 == 99 {
			name = fmt.Sprintf("only-%d", i) // a name held by one row: no rank, no list
		}
		if i%5 == 0 {
			score = NullValue()
		}
		rows[i] = Row{IntValue(int64(i)), StringValue(name), score}
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	tb.Scan(func(id int64, r Row) bool { byName[r[1].S] = append(byName[r[1].S], id); return true })
	view, release := pinView(tb) // the deletes below leave their rows stored for the pinned view
	defer release()
	var gone []int64
	tb.Scan(func(id int64, _ Row) bool { gone = append(gone, id); return len(gone) < n/10 })
	if err := db.CommitDeltas([]TableDelta{{Table: "t", DeleteIDs: gone}}); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(view)
	err = errors.Join(tb.CreateIndex("id", IndexBTree), tb.CreateIndex("name", IndexHash), tb.CreateIndex("score", IndexBTree),
		tb.CreateRankIndex("name", testRanks, testRank, "testRank"))
	if err != nil {
		t.Fatal(err)
	}
	id, name, score, rank := tb.indexOn(tb.indexes, "id"), tb.indexOn(tb.indexes, "name"), tb.indexOn(tb.indexes, "score"), tb.indexOn(tb.ranks, "name")
	for col, ix := range map[string]*index{"id": id, "name": name, "score": score, "rank": rank} {
		if err := ix.check(); err != nil {
			t.Errorf("%s: %v", col, err)
		}
		for m, list := range ix.post.lists {
			if (ix.rank != nil || ix.hash == nil && m == nullList) && cap(list) != len(list) {
				t.Errorf("%s: list %d holds %d IDs in room for %d", col, m, len(list), cap(list))
			}
		}
	}
	if id.ints.keys != n || id.post.pos != nil {
		t.Errorf("id: %d keys and %d positions, want %d and none", id.ints.keys, len(id.post.pos), n)
	}
	if got, want := len(name.hash.hashes), 128; name.hash.used != len(byName) || got != want {
		t.Errorf("name: %d hashes in %d positions, want %d in %d", name.hash.used, got, len(byName), want)
	}
	for s, want := range byName {
		got, _ := name.get(StringValue(s))
		if !slices.Equal(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("name %q: hash holds %v, want %v", s, got, want)
		}
		k, ok := testRank(s)
		if got, _ := rank.get(IntValue(k)); ok && !slices.Equal(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("name %q: rank %d holds %v, want %v", s, k, got, want)
		}
	}
	if nulls, _ := score.get(NullValue()); len(nulls) != n/5 {
		t.Errorf("score: %d NULL rows, want %d", len(nulls), n/5)
	}
}
