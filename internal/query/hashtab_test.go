package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"drugtree/internal/store"
)

// Model test of hashTab: every insert and find is checked against a
// slice of keys in first-seen order searched linearly with the table's
// documented key semantics, so entry ids must come out dense and in
// first-seen order whatever the hashes do.

// tabModel is the reference: keys[id] is entry id's key.
type tabModel struct {
	grouping bool
	keys     [][]store.Value
}

func (m *tabModel) matches(a, b []store.Value) bool {
	for c := range a {
		if a[c].IsNull() || b[c].IsNull() {
			if !(m.grouping && a[c].IsNull() && b[c].IsNull()) {
				return false
			}
			continue
		}
		if m.grouping && a[c].K != b[c].K {
			return false
		}
		if !store.Equal(a[c], b[c]) {
			return false
		}
	}
	return true
}

func (m *tabModel) find(key []store.Value) int32 {
	for id, k := range m.keys {
		if m.matches(k, key) {
			return int32(id)
		}
	}
	return -1
}

func (m *tabModel) insert(key []store.Value) int32 {
	if !m.grouping {
		for _, v := range key {
			if v.IsNull() {
				return -1
			}
		}
	}
	if id := m.find(key); id >= 0 {
		return id
	}
	m.keys = append(m.keys, key)
	return int32(len(m.keys) - 1)
}

// cellGen draws one key cell; kind is the kind every non-NULL cell has
// (so batches can carry them in a typed column).
type cellGen struct {
	kind store.Kind // KindNull: mixed kinds, generic columns only
	draw func(r *rand.Rand) store.Value
}

func intCells(domain int64) cellGen {
	return cellGen{store.KindInt, func(r *rand.Rand) store.Value { return store.IntValue(r.Int63n(domain)) }}
}

func withNulls(g cellGen) cellGen {
	return cellGen{g.kind, func(r *rand.Rand) store.Value {
		if r.Intn(5) == 0 {
			return store.NullValue()
		}
		return g.draw(r)
	}}
}

var (
	// "" is a value like any other; so is a string that is another's prefix.
	strCells = cellGen{store.KindString, func(r *rand.Rand) store.Value {
		return store.StringValue([]string{"", "a", "ab", "b", "LIG0001", "LIG0002", "DT00017"}[r.Intn(7)])
	}}
	floatCells = cellGen{store.KindFloat, func(r *rand.Rand) store.Value {
		return store.FloatValue([]float64{0, math.Copysign(0, -1), 1, 1.5, -2, math.NaN(), math.Inf(1)}[r.Intn(7)])
	}}
	boolCells = cellGen{store.KindBool, func(r *rand.Rand) store.Value { return store.BoolValue(r.Intn(2) == 0) }}
	// INT and FLOAT cells store.Equal calls equal (1 and 1.0), beside
	// ones it does not.
	numCells = cellGen{store.KindNull, func(r *rand.Rand) store.Value {
		if n := int64(r.Intn(6)); r.Intn(2) == 0 {
			return store.IntValue(n)
		} else {
			return store.FloatValue(float64(n) + []float64{0, 0, 0.5}[r.Intn(3)])
		}
	}}
	// 2^53 and 2^53+1 widen to one float64: one hash, two keys.
	wideCells = cellGen{store.KindInt, func(r *rand.Rand) store.Value {
		return store.IntValue(1<<53 + int64(r.Intn(4)))
	}}
	anyCells = cellGen{store.KindNull, func(r *rand.Rand) store.Value {
		switch r.Intn(5) {
		case 0:
			return store.NullValue()
		case 1:
			return store.IntValue(int64(r.Intn(3)))
		case 2:
			return store.FloatValue(float64(r.Intn(3)))
		case 3:
			return store.StringValue([]string{"", "0", "1"}[r.Intn(3)])
		}
		return store.BoolValue(r.Intn(2) == 0)
	}}
)

// genBatch draws n rows of the given columns into a batch of columns of
// the given kinds with a random selection.
func genBatch(r *rand.Rand, gens []cellGen, kinds []store.Kind, n int) (cols []*store.Col, sel []int, rows [][]store.Value) {
	rows = make([][]store.Value, n)
	for i := range rows {
		rows[i] = make([]store.Value, len(gens))
	}
	cols = make([]*store.Col, len(gens))
	for c, g := range gens {
		cols[c] = store.NewCol(kinds[c], n)
		for i := range rows {
			rows[i][c] = g.draw(r)
			cols[c].Append(rows[i][c])
		}
	}
	for i := 0; i < n; i++ {
		if r.Intn(4) > 0 {
			sel = append(sel, i)
		}
	}
	return cols, sel, rows
}

func TestHashTabModel(t *testing.T) {
	cases := []struct {
		name     string
		grouping bool
		gens     []cellGen
		rows     int // total rows inserted
		rehash   func(uint64) uint64
	}{
		{name: "int-chains", gens: []cellGen{intCells(40)}, rows: 2000},
		{name: "int-growth", gens: []cellGen{intCells(1 << 40)}, rows: 5000}, // 16 → 16384 slots
		{name: "string-int", gens: []cellGen{strCells, intCells(5)}, rows: 2000},
		{name: "nulls-never-match", gens: []cellGen{withNulls(strCells), withNulls(intCells(4))}, rows: 2000},
		{name: "nulls-group", grouping: true, gens: []cellGen{withNulls(strCells), withNulls(intCells(4))}, rows: 2000},
		{name: "float-edge", gens: []cellGen{floatCells}, rows: 500},
		{name: "float-edge-group", grouping: true, gens: []cellGen{withNulls(floatCells), boolCells}, rows: 500},
		{name: "int-float-equal", gens: []cellGen{numCells}, rows: 1000},
		{name: "int-float-group", grouping: true, gens: []cellGen{numCells}, rows: 1000},
		{name: "wide-ints", gens: []cellGen{wideCells}, rows: 300},
		{name: "any-kind", gens: []cellGen{anyCells, anyCells}, rows: 3000},
		{name: "any-kind-group", grouping: true, gens: []cellGen{anyCells, anyCells}, rows: 3000},
		{name: "one-hash", gens: []cellGen{intCells(300), strCells}, rows: 1500, rehash: func(uint64) uint64 { return 42 }},
		{name: "four-hashes-group", grouping: true, gens: []cellGen{withNulls(intCells(200))}, rows: 1500, rehash: func(h uint64) uint64 { return h & 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed))
				tab := newHashTab(tc.grouping, 0)
				tab.rehash = tc.rehash
				model := &tabModel{grouping: tc.grouping}
				// A typed generator's cells arrive in a typed column or — one
				// table in three — a generic one, the same for every batch.
				kinds := make([]store.Kind, len(tc.gens))
				for c, g := range tc.gens {
					if kinds[c] = g.kind; seed == 3 {
						kinds[c] = store.KindNull
					}
				}
				var ids []int32
				for done := 0; done < tc.rows; {
					n := 1 + r.Intn(200)
					cols, sel, rows := genBatch(r, tc.gens, kinds, n)
					// Probe before inserting: find must agree with the model
					// on present and absent keys alike, and change nothing.
					for _, i := range sel {
						if got, want := tab.find(cols, i), model.find(rows[i]); got != want {
							t.Fatalf("seed %d: find(%v) = %d, model %d", seed, rows[i], got, want)
						}
					}
					ids = tab.insertBatch(cols, sel, ids)
					if len(ids) != len(sel) {
						t.Fatalf("seed %d: insertBatch returned %d ids for %d rows", seed, len(ids), len(sel))
					}
					for k, i := range sel {
						if want := model.insert(rows[i]); ids[k] != want {
							t.Fatalf("seed %d: insert(%v) = %d, model %d (entries %d)", seed, rows[i], ids[k], want, tab.len())
						}
					}
					done += n
				}
				if tab.len() != len(model.keys) {
					t.Fatalf("seed %d: %d entries, model %d", seed, tab.len(), len(model.keys))
				}
				if 2*tab.len() > len(tab.slots) || len(tab.slots)&(len(tab.slots)-1) != 0 {
					t.Fatalf("seed %d: %d entries in %d slots", seed, tab.len(), len(tab.slots))
				}
				// Stored key cells are the first-seen key's, kind and all.
				for id, key := range model.keys {
					for c, want := range key {
						got := tab.keys[c].Value(id)
						if got.K != want.K || (!store.Equal(got, want)) {
							t.Fatalf("seed %d: entry %d column %d holds %v, first seen %v", seed, id, c, got, want)
						}
					}
				}
			}
		})
	}
}

// TestHashTabContains covers the by-value probe IN (subquery) uses.
func TestHashTabContains(t *testing.T) {
	col := store.NewCol(store.KindNull, 4)
	for _, v := range []store.Value{store.IntValue(1), store.NullValue(), store.StringValue(""), store.IntValue(1 << 53)} {
		col.Append(v)
	}
	tab := newHashTab(false, col.Len())
	for i := 0; i < col.Len(); i++ {
		tab.insert([]*store.Col{col}, i)
	}
	for _, tc := range []struct {
		v    store.Value
		want bool
	}{
		{store.IntValue(1), true},
		{store.FloatValue(1), true}, // store.Equal widens
		{store.StringValue(""), true},
		{store.NullValue(), false}, // NULL IN (…NULL…) is not true
		{store.IntValue(1<<53 + 1), false},
		{store.StringValue("1"), false},
		{store.BoolValue(true), false},
	} {
		if got := tab.contains(tc.v); got != tc.want {
			t.Errorf("contains(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { tab.contains(store.IntValue(1)) }); n != 0 {
		t.Errorf("contains allocates %v objects a call", n)
	}
}

func benchKeys(n int) []*store.Col {
	ids, names := store.NewCol(store.KindInt, n), store.NewCol(store.KindString, n)
	for i := 0; i < n; i++ {
		ids.Append(store.IntValue(int64(i % 7)))
		names.Append(store.StringValue(fmt.Sprintf("DT%05d", i)))
	}
	return []*store.Col{names, ids}
}

// BenchmarkHashTabInsert inserts 8192 distinct two-column keys into an
// empty table (growth included); ns/op is per table.
func BenchmarkHashTabInsert(b *testing.B) {
	const n = 8192
	keys := benchKeys(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := newHashTab(false, 0)
		for r := 0; r < n; r++ {
			tab.insert(keys, r)
		}
	}
}

// BenchmarkHashTabProbe finds each of the 8192 keys once; ns/op is per
// 8192 probes.
func BenchmarkHashTabProbe(b *testing.B) {
	const n = 8192
	keys := benchKeys(n)
	tab := newHashTab(false, n)
	for r := 0; r < n; r++ {
		tab.insert(keys, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < n; r++ {
			if tab.find(keys, r) != int32(r) {
				b.Fatal("probe missed")
			}
		}
	}
}
