package store

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The index model is a slice of (key, id) pairs kept sorted by
// store.Compare: everything an index answers — point probes, range
// walks in both directions, Min and Max — is recomputed from it by
// linear passes and compared, for every index form over every column
// kind, NULL keys mixed in.

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

// minMax reads a B+-tree index's smallest and largest key as Values.
func (ix *index) minMax() (lo, hi Value, ok bool) {
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

// check verifies the probe-run and postings bookkeeping of the table:
// every entry reachable from its home without crossing an empty
// position (what backward-shift deletion must preserve), no hash filed
// twice, the load inside its bounds, and side postings only where a hash
// holds two rows or more.
func (h *hashIndex) check() error {
	size := len(h.hashes)
	mask, used, many := size-1, 0, 0
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
		if m := ^h.ids[i]; m >= 0 {
			if many++; len(h.many[m]) < 2 {
				return fmt.Errorf("side postings %d hold %d ids", m, len(h.many[m]))
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
	case many+len(h.spare) != len(h.many):
		return fmt.Errorf("%d side postings in use + %d spare != %d", many, len(h.spare), len(h.many))
	}
	for _, m := range h.spare {
		if h.many[m] != nil {
			return fmt.Errorf("spare side postings %d not released", m)
		}
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

// TestIndexMatchesModel drives each index form over each column kind
// through a seeded grow / churn / drain schedule — duplicate-heavy at
// first, then spread wide so the hash table doubles and B+-tree leaves
// split, then deleted down to nothing so the table halves back and
// leaves stand empty — and compares every answer with the sorted-slice
// model along the way. The colliding configuration replaces the hash
// function with one of five values (zero among them), so unequal keys
// share one table entry and one postings list.
func TestIndexMatchesModel(t *testing.T) {
	collide := func(v Value) uint64 { return v.Hash() % 5 }
	for _, cfg := range []struct {
		name   string
		typ    IndexType
		hashOf func(Value) uint64
	}{{"btree", IndexBTree, nil}, {"hash", IndexHash, nil}, {"hash-colliding", IndexHash, collide}} {
		for _, kind := range []Kind{KindInt, KindFloat, KindString, KindBool} {
			t.Run(fmt.Sprintf("%s/%v", cfg.name, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(kind)*31 + int64(cfg.typ)))
				ix, m := newIndex(0, cfg.typ, kind, 0), &indexModel{}
				if ix.hash != nil {
					ix.hash.hashOf = cfg.hashOf
				}
				nextID, peak := int64(0), hashMinSize
				step := func(insertOdds, spread int) {
					if rng.Intn(100) < insertOdds || len(m.entries) == 0 {
						k := randomKey(rng, kind, spread)
						// IDs look like the table's: a generation over a slot.
						id := nextID<<32 | nextID
						nextID++
						ix.insert(k, id)
						m.insert(k, id)
					} else {
						e := m.remove(rng.Intn(len(m.entries)))
						ix.remove(e.key, e.id)
						ix.remove(e.key, e.id)       // a second removal finds nothing
						ix.remove(e.key, 1<<62|e.id) // nor does an ID never filed
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
					ix.remove(e.key, e.id)
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
// each stage: inline while there is one, in a side slice from the second
// on, inline again (the slice released) when one remains.
func TestIndexPostingTransitions(t *testing.T) {
	key, other := StringValue("kinase"), StringValue("ligase")
	for _, typ := range []IndexType{IndexBTree, IndexHash} {
		ix := newIndex(0, typ, KindString, 0)
		inline := func() bool {
			if ix.hash != nil {
				pos, found := ix.hash.find(ix.hash.hash(key))
				return found && ix.hash.ids[pos] >= 0
			}
			leaf := ix.strs.leafFor(key.S)
			i := findKey(leaf, key.S)
			return leaf.many == nil || leaf.many[i] == nil
		}
		expect := func(stage string, wantInline bool, want ...int64) {
			t.Helper()
			got, _ := ix.get(key)
			if fmt.Sprint(sortedIDs(got)) != fmt.Sprint(want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("%v %s: postings %v, want %v", typ, stage, got, want)
			}
			if len(want) > 0 && inline() != wantInline {
				t.Fatalf("%v %s: inline = %v, want %v", typ, stage, !wantInline, wantInline)
			}
			if ids, _ := ix.get(other); len(ids) != 1 || ids[0] != 99 {
				t.Fatalf("%v %s: the neighbouring key holds %v", typ, stage, ids)
			}
		}
		ix.insert(other, 99)
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
		if ix.hash != nil {
			if err := ix.hash.check(); err != nil {
				t.Fatal(err)
			}
			if len(ix.hash.spare) != 1 {
				t.Fatalf("hash: %d spare side postings after the key emptied, want the one it used", len(ix.hash.spare))
			}
		}
	}
}
