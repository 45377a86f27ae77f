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

// minMax reads a B+-tree's smallest and largest key as Values, or a
// code index's smallest and largest rank holding rows under rk.
func (ix *index) minMax(rk *ranking) (lo, hi Value, ok bool) {
	if rk != nil {
		first, last := -1, -1
		for r, c := range rk.codeOf {
			if c != nullCode && len(ix.getCode(c)) > 0 {
				if first < 0 {
					first = r
				}
				last = r
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
// position holds its ID; a list a code or a leaf names holds two IDs or
// more and is named once, and a leaf counts the lists it names; a code
// index counts the non-NULL codes holding rows; each freed list number
// holds an empty list, once; and every list is named, free, or fixed (a
// B+-tree index's NULL list).
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
			case id >= 0 || id == noRows:
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
	case ix.dict != nil:
		fixed = 0
		_, err = name(ix.byCode)
		keys := 0
		for c, at := range ix.byCode {
			if c != nullCode && at != noRows {
				keys++
			}
		}
		if err == nil && keys != ix.keys {
			err = fmt.Errorf("%d codes hold rows, keys = %d", keys, ix.keys)
		}
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

// verifyIndex compares every answer of ix with the model: read by rank
// under rk when rk is set, the model holding ranks; probed with extra
// besides the awkward keys and a sample of the model's.
func verifyIndex(ix *index, rk *ranking, m *indexModel, rng *rand.Rand, extra ...Value) error {
	probes := append(slices.Clone(strangers), extra...)
	probes = append(probes, indexKeyPools[ix.kind]...)
	if rk != nil {
		probes = append(probes, indexKeyPools[KindInt]...)
	}
	for i := 0; i < 12 && len(m.entries) > 0; i++ {
		probes = append(probes, m.entries[rng.Intn(len(m.entries))].key)
	}
	for _, p := range probes {
		if got, want := sortedIDs(ix.getKey(rk, p)), m.equal(p); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("probe %v: ids %v, model %v", p, got, want)
		}
	}
	// No one asks a ranked index its distinct keys.
	if rk == nil {
		if got, want := ix.distinct(), m.distinctKeys(); got != want {
			return fmt.Errorf("%d distinct keys, model %d", got, want)
		}
	}
	if err := ix.check(); err != nil {
		return err
	}
	if ix.typ == IndexHash && rk == nil { // read by key only
		return nil
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
		walkForm(ix, rk, lo, hi, desc, func(ids []int64) bool {
			got = append(got, sortedIDs(ids))
			return true
		})
		if want := m.groups(lo, hi, desc); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("walk [%v, %v] desc=%v:\ngot  %v\nwant %v", lo, hi, desc, got, want)
		}
		for _, max := range []int{0, 1, 3, 1 + rng.Intn(80), 200} {
			if rk != nil {
				break
			}
			if got, want := ix.count(lo, hi, max), countByWalk(ix, lo, hi, max); got != want {
				return fmt.Errorf("count [%v, %v] max %d = %d, the per-key walk %d", lo, hi, max, got, want)
			}
		}
		stopAt, seen := 1+rng.Intn(3), 0
		walkForm(ix, rk, lo, hi, desc, func([]int64) bool { seen++; return seen < stopAt })
		if want := min(stopAt, len(got)); seen != want {
			return fmt.Errorf("walk [%v, %v] stopped after %d keys, want %d", lo, hi, seen, want)
		}
	}
	lo, hi, ok := ix.minMax(rk)
	all := m.groups(nil, nil, false)
	if ok != (len(all) > 0) {
		return fmt.Errorf("Min/Max ok = %v with %d keys", ok, len(all))
	}
	if ok {
		if got, want := sortedIDs(ix.getKey(rk, lo)), all[0]; fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("Min = %v holding %v, model's first key holds %v", lo, got, want)
		}
		if got, want := sortedIDs(ix.getKey(rk, hi)), all[len(all)-1]; fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("Max = %v holding %v, model's last key holds %v", hi, got, want)
		}
	}
	return nil
}

// fileCell files id under cell v in any index form, as the table does:
// a code index under the code it interns for v.
func fileCell(ix *index, v Value, id int64) {
	if ix.dict == nil {
		ix.insert(v, id)
		return
	}
	c := int32(nullCode)
	if v.K == KindString {
		c = ix.dict.intern(v.S)
	}
	ix.addCode(c, id)
}

// unfileCell takes id out from under cell v in any index form.
func unfileCell(ix *index, v Value, id int64) {
	if ix.dict == nil {
		ix.remove(v, id)
	} else if c, ok := ix.codeOf(v); ok {
		ix.dropCode(c, id)
	}
}

// walkForm walks ix's keys in [lo, hi], by rank under rk when rk is
// set.
func walkForm(ix *index, rk *ranking, lo, hi *Value, desc bool, fn func(ids []int64) bool) {
	if rk != nil {
		ix.walkRanks(rk, lo, hi, desc, fn)
		return
	}
	ix.walk(lo, hi, desc, fn)
}

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
// v itself, or read by rank under rk its rank as an INT; ok is false for
// a cell no rank names.
func modelKey(ix *index, rk *ranking, v Value) (Value, bool) {
	if rk == nil {
		return v, true
	}
	c, ok := ix.codeOf(v)
	if !ok || c == nullCode || int(c) >= len(rk.rankOf) || rk.rankOf[c] < 0 {
		return Value{}, false
	}
	return IntValue(int64(rk.rankOf[c])), true
}

// testRanks and testRankName rank the model's STRING keys for the rank
// form: rank r names "k%05d" of 4r unless r is 4 mod 9, the last rank
// names "kinase", and the one before it names "k00000" again, which
// stays rank 0's, the lower. Every other cell has no rank.
const testRanks = 1001

func testRankName(r int) string {
	switch {
	case r == testRanks-1:
		return "kinase"
	case r == testRanks-2:
		return "k00000"
	case r%9 == 4:
		return ""
	}
	return fmt.Sprintf("k%05d", 4*r)
}

// testRanking returns d's ranking after publishing testRankName's.
func testRanking(d *Dict) *ranking {
	d.publish("testRanking", testRanks, testRankName)
	return d.ranking("testRanking")
}

// TestIndexMatchesModel drives each index form over each column kind
// through a seeded grow / churn / drain schedule — duplicate-heavy at
// first, then spread wide so the code array grows and B+-tree leaves
// split, then deleted down to nothing so leaves stand empty — and
// compares every answer with the sorted-slice model along the way. The
// B+-tree's NULL rows are one list; btree-nulls turns a further third
// of its keys to NULL so that list grows long and churns. A hash index
// is a code index over STRING (NULL rows under nullCode) and a B+-tree
// read by key over the other kinds. The code form codes into a
// dictionary that other columns share: it holds names before the run
// and gains more during it, so the column's codes are sparse and its
// names are first seen mid-run, and it is probed with strings no cell
// holds. The rank form reads a code index by rank under testRankName's
// ranking, the model holding each row's rank; a cell with no rank goes
// to the index but not to the model.
func TestIndexMatchesModel(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		typ   IndexType
		nulls int    // > 0: one more key in nulls is NULL
		form  string // "code" or "rank": a code index over STRING cells
		seed  int64  // added to the kind's seed
	}{
		{"btree", IndexBTree, 0, "", 0},
		{"btree-nulls", IndexBTree, 3, "", 101},
		{"hash", IndexHash, 0, "", 0},
		{"code", IndexHash, 0, "code", 303},
		{"rank", IndexHash, 0, "rank", 202},
	} {
		for _, kind := range []Kind{KindInt, KindFloat, KindString, KindBool} {
			if cfg.form != "" && kind != KindString {
				continue
			}
			t.Run(fmt.Sprintf("%s/%v", cfg.name, kind), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(kind)*31 + int64(cfg.typ) + cfg.seed))
				d, m := newDict(), &indexModel{}
				var rk *ranking
				var unknown []Value // probes no cell holds
				switch cfg.form {
				case "rank":
					rk = testRanking(d)
				case "code":
					for i := range 300 {
						d.intern(fmt.Sprintf("other-%d", i))
					}
					unknown = []Value{StringValue("never"), StringValue("other-7"), StringValue("k99999")}
				}
				ix := newIndex(0, cfg.typ, kind, d)
				cells := map[int64]Value{} // by ID: the cell a model entry was filed from
				nextID, late := int64(0), 0
				step := func(insertOdds, spread int) {
					if cfg.form == "code" && rng.Intn(40) == 0 {
						d.intern(fmt.Sprintf("late-%d", late)) // another column's new name
						late++
					}
					if rng.Intn(100) < insertOdds || len(m.entries) == 0 {
						k := randomKey(rng, kind, spread)
						if cfg.nulls > 0 && rng.Intn(cfg.nulls) == 0 {
							k = NullValue()
						}
						// IDs look like the table's: a generation over a slot.
						id := nextID<<32 | nextID
						nextID++
						fileCell(ix, k, id)
						if key, ok := modelKey(ix, rk, k); ok {
							m.insert(key, id)
							cells[id] = k
						}
					} else {
						e := m.remove(rng.Intn(len(m.entries)))
						k := cells[e.id]
						unfileCell(ix, k, e.id)
						unfileCell(ix, k, e.id)       // a second removal finds nothing
						unfileCell(ix, k, 1<<62|e.id) // nor does an ID never filed
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
							if err := verifyIndex(ix, rk, m, rng, unknown...); err != nil {
								t.Fatalf("phase %d step %d (%d entries): %v", phase, i, len(m.entries), err)
							}
						}
					}
				}
				for len(m.entries) > 0 {
					e := m.remove(len(m.entries) - 1)
					unfileCell(ix, cells[e.id], e.id)
				}
				if err := verifyIndex(ix, rk, m, rng, unknown...); err != nil {
					t.Fatalf("empty: %v", err)
				}
			})
		}
	}
}

// TestIndexPostingTransitions walks one key through 1 → 2 → many → 1 →
// 0 postings in each index form and checks where the postings live at
// each stage: under its code or in a B+-tree, inline while there is
// one, in a list from the second on, inline again (the list freed) when
// one remains; a B+-tree's NULL rows always in their list, a code
// index's like any code's. The index's check runs at every stage.
func TestIndexPostingTransitions(t *testing.T) {
	ranked := newDict()
	ranked.publish("transitions", 8, func(r int) string { return map[int]string{3: "kinase", 5: "ligase"}[r] })
	for _, form := range []struct {
		name       string
		ix         *index
		rk         *ranking
		key, other Value // filed
		probe      Value // what reads key
		listed     bool  // key's rows always sit in a list
	}{
		{"btree", newIndex(0, IndexBTree, KindString, nil), nil, StringValue("kinase"), StringValue("ligase"), StringValue("kinase"), false},
		{"hash", newIndex(0, IndexHash, KindString, newDict()), nil, StringValue("kinase"), StringValue("ligase"), StringValue("kinase"), false},
		{"btree-null", newIndex(0, IndexBTree, KindString, nil), nil, NullValue(), StringValue("ligase"), NullValue(), true},
		{"hash-null", newIndex(0, IndexHash, KindString, newDict()), nil, NullValue(), StringValue("ligase"), NullValue(), false},
		{"rank", newIndex(0, IndexHash, KindString, ranked), ranked.ranking("transitions"), StringValue("kinase"), StringValue("ligase"), IntValue(3), false},
	} {
		ix, key := form.ix, form.key
		inline := func() bool {
			switch {
			case form.listed:
				return false
			case ix.dict != nil:
				c, _ := ix.codeOf(key)
				return ix.byCode[c] >= 0
			}
			leaf := ix.strs.leafFor(key.S)
			return leaf.ids[findKey(leaf, key.S)] >= 0
		}
		expect := func(stage string, wantInline bool, want ...int64) {
			t.Helper()
			got := ix.getKey(form.rk, form.probe)
			if fmt.Sprint(sortedIDs(got)) != fmt.Sprint(want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("%s %s: postings %v, want %v", form.name, stage, got, want)
			}
			if len(want) > 0 && inline() != (wantInline && !form.listed) {
				t.Fatalf("%s %s: inline = %v, want %v", form.name, stage, !wantInline, wantInline)
			}
			probe, _ := modelKey(ix, form.rk, form.other)
			if ids := ix.getKey(form.rk, probe); len(ids) != 1 || ids[0] != 99 {
				t.Fatalf("%s %s: the neighbouring key holds %v", form.name, stage, ids)
			}
			if err := ix.check(); err != nil {
				t.Fatalf("%s %s: %v", form.name, stage, err)
			}
		}
		fileCell(ix, form.other, 99)
		fileCell(ix, key, 1)
		expect("one", true, 1)
		fileCell(ix, key, 2)
		expect("two", false, 1, 2)
		for id := int64(3); id <= 9; id++ {
			fileCell(ix, key, id)
		}
		expect("many", false, 1, 2, 3, 4, 5, 6, 7, 8, 9)
		for id := int64(9); id >= 3; id-- {
			unfileCell(ix, key, id)
		}
		expect("two again", false, 1, 2)
		unfileCell(ix, key, 1)
		expect("one again", true, 2)
		unfileCell(ix, key, 2)
		expect("none", true)
		if want := map[bool]int{false: 1, true: 0}[form.listed]; len(ix.post.free) != want {
			t.Fatalf("%s: %d free lists after the key emptied, want %d", form.name, len(ix.post.free), want)
		}
	}
}

// TestUniqueKeysAllocateNoPositions files and churns one row a key
// through each form — a B+-tree's one NULL row and a code index's among
// them — and demands that no form allocates positions or lists beyond
// the fixed ones: only repeated keys pay for them.
func TestUniqueKeysAllocateNoPositions(t *testing.T) {
	const n = 3000
	for _, form := range []struct {
		name string
		ix   *index
		key  func(i int) Value
	}{
		{"btree/INT", newIndex(0, IndexBTree, KindInt, nil), func(i int) Value { return IntValue(int64(i)) }},
		{"btree/STRING", newIndex(0, IndexBTree, KindString, nil), func(i int) Value { return StringValue(fmt.Sprintf("r%d", i)) }},
		{"hash/INT", newIndex(0, IndexHash, KindInt, nil), func(i int) Value { return IntValue(int64(i)) }},
		{"hash/STRING", newIndex(0, IndexHash, KindString, newDict()), func(i int) Value { return StringValue(fmt.Sprintf("r%d", i)) }},
	} {
		ix := form.ix
		key := func(i int) Value {
			if i == n/2 {
				return NullValue()
			}
			return form.key(i)
		}
		for i := range n {
			fileCell(ix, key(i), int64(i))
		}
		for i := 0; i < n; i += 3 { // a row retired and its slot refilled by the next generation
			unfileCell(ix, key(i), int64(i))
			fileCell(ix, key(i), 1<<32|int64(i))
		}
		if err := ix.check(); err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		fixed := 1
		if ix.dict != nil {
			fixed = 0
		}
		if ix.post.pos != nil || len(ix.post.lists) != fixed {
			t.Fatalf("%s: %d positions and %d lists, want none and %d", form.name, len(ix.post.pos), len(ix.post.lists), fixed)
		}
	}
}

// TestBackfillSizesListsOnce pins what CreateIndex's backfill does:
// every stored row filed, retired ones included, each under its key;
// each list that will not move (a code's, the NULL list) allocated once
// at its length; a code index keyed by every code the dictionary had
// and read by rank under a ranking; an all-unique column with no
// positions; and every form's postings consistent.
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
	rk := testRanking(db.dict)
	err = errors.Join(tb.CreateIndex("id", IndexBTree), tb.CreateIndex("name", IndexHash), tb.CreateIndex("score", IndexBTree))
	if err != nil {
		t.Fatal(err)
	}
	id, name, score := tb.indexOn("id"), tb.indexOn("name"), tb.indexOn("score")
	for col, ix := range map[string]*index{"id": id, "name": name, "score": score} {
		if err := ix.check(); err != nil {
			t.Errorf("%s: %v", col, err)
		}
		for m, list := range ix.post.lists {
			if (ix.dict != nil || m == nullList) && cap(list) != len(list) {
				t.Errorf("%s: list %d holds %d IDs in room for %d", col, m, len(list), cap(list))
			}
		}
	}
	if id.ints.keys != n || id.post.pos != nil {
		t.Errorf("id: %d keys and %d positions, want %d and none", id.ints.keys, len(id.post.pos), n)
	}
	if got, want := len(name.byCode), len(db.dict.Names()); name.keys != len(byName) || got != want {
		t.Errorf("name: %d codes hold rows of %d, want %d of %d", name.keys, got, len(byName), want)
	}
	for s, want := range byName {
		if got := name.get(StringValue(s)); !slices.Equal(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("name %q: code holds %v, want %v", s, got, want)
		}
		var k int
		if _, err := fmt.Sscanf(s, "k%05d", &k); err == nil && (k/4)%9 != 4 {
			if got := name.getKey(rk, IntValue(int64(k/4))); !slices.Equal(sortedIDs(got), sortedIDs(want)) {
				t.Fatalf("name %q: rank %d holds %v, want %v", s, k/4, got, want)
			}
		}
	}
	if nulls := score.get(NullValue()); len(nulls) != n/5 {
		t.Errorf("score: %d NULL rows, want %d", len(nulls), n/5)
	}
}
