package query

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"drugtree/internal/store"
)

// The code-indexed build side: a one-key join whose build key is coded,
// its codes spanning no more slots than a hashTab of its rows would
// take, chains its rows under an array indexed by code instead of a
// hashTab. Every join it serves must produce the pairs, in the order,
// that the hashed build produces (execCtx.hashCodes) — probe rows in
// arrival order, each with its build matches in arrival order — and the
// reference executor's rows.

// codeJoinNames are the dictionary's names in code order: lo0..lo4 sit
// below a build over k0..k5, hi0..hi39 above it, and k4 is a code inside
// that span that no build row holds.
func codeJoinNames() []string {
	names := []string{"lo0", "lo1", "lo2", "lo3", "lo4", "k0", "k1", "k2", "k3", "k4", "k5"}
	for i := range 40 {
		names = append(names, fmt.Sprintf("hi%d", i))
	}
	return names
}

// codeJoinCatalog builds the tables of the join corpus over a dictionary
// that codes codeJoinNames in order ("" is NULL):
//
//	b(k coded, v INT) — the build: duplicate keys, NULLs, no k4
//	p(k coded, w INT) — the probe: keys below, inside and above b's span,
//	  the gap k4, NULL and every hi name, three times over: few rows a
//	  key, so a small build drives it as a keyed probe
//	q(k STRING, w INT) — plain: k0..k5, lo0, hi0, NULL and names no
//	  table holds
//	sparse(k coded, v INT) — two rows whose codes span 51 slots, more than
//	  the 16 a hashTab of two rows takes
//	e(k coded, v INT) — empty
func codeJoinCatalog(t testing.TB) *DBCatalog {
	t.Helper()
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	table := func(name string, coded bool, rows ...store.Row) {
		tab, err := db.CreateTable(name, store.MustSchema(store.Column{Name: "k", Kind: store.KindString}, store.Column{Name: "v", Kind: store.KindInt}))
		if err != nil {
			t.Fatal(err)
		}
		if coded {
			if err := tab.CreateIndex("k", store.IndexHash); err != nil {
				t.Fatal(err)
			}
		}
		if len(rows) > 0 {
			if err := db.CommitDeltas([]store.TableDelta{{Table: name, Inserts: rows}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := func(keys ...string) []store.Row {
		out := make([]store.Row, len(keys))
		for i, k := range keys {
			out[i] = store.Row{store.StringValue(k), store.IntValue(int64(i))}
			if k == "" {
				out[i][0] = store.NullValue()
			}
		}
		return out
	}
	table("names", true, rows(codeJoinNames()...)...)
	table("b", true, rows("k0", "k1", "k0", "", "k2", "k0", "k1", "k3", "", "k5", "k2", "k0")...)
	var probe []string
	for range 3 {
		probe = append(probe, "lo1", "k0", "hi2", "", "k4", "k5", "k1", "k2", "k0", "k3", "lo4", "hi39")
		probe = append(probe, codeJoinNames()[11:]...)
	}
	table("p", true, rows(probe...)...)
	table("q", false, rows("k0", "zz", "k1", "", "lo0", "k0", "nope", "k3", "k2", "k5", "k1", "hi0", "k0", "", "zz", "k4")...)
	table("sparse", true, rows("lo0", "hi39")...)
	table("e", true)
	snap := db.PinSnapshot()
	defer snap.Release()
	for i, name := range codeJoinNames() {
		if code, ok := snap.Dict().Code(name); !ok || code != int64(i+1) { // code 0 is NULL's
			t.Fatalf("%s codes as %d (%v), want %d", name, code, ok, i+1)
		}
	}
	return NewDBCatalog(db, nil)
}

// codeJoinCorpus lists join statements with the fragment their plan must
// hold, which pins the build side each is meant to exercise.
var codeJoinCorpus = []struct{ q, plan string }{
	// A coded build with duplicate and NULL keys; coded probes below,
	// inside and above its span, NULL, and the gap k4.
	{"SELECT p.v, b.v, b.k FROM p JOIN b ON p.k = b.k", "build=right"},
	{"SELECT b.v, p.v FROM b JOIN p ON b.k = p.k", "build=left"},
	// A plain probe against the coded build: names the dictionary
	// lacks code as −1 and match nothing.
	{"SELECT q.v, b.v, q.k FROM q JOIN b ON q.k = b.k", "build=right"},
	// A plain build against a coded probe: the probe is decoded.
	{"SELECT q.v, p.v FROM p JOIN q ON p.k = q.k WHERE q.v < 8", "build=right"},
	// A keyed probe: the build's distinct codes, in first-seen order,
	// drive an index scan of p.
	{"SELECT b.v, p.v, p.k FROM b JOIN p ON b.k = p.k WHERE b.v < 6", "probe=keys"},
	// Codes spanning more slots than a two-row table takes: hashed.
	{"SELECT p.v, sparse.v FROM p JOIN sparse ON p.k = sparse.k", "build=right"},
	// An empty build.
	{"SELECT p.v, e.v FROM p JOIN e ON p.k = e.k", "build=right"},
	{"SELECT COUNT(*) FROM p JOIN e ON p.k = e.k", "GroupJoin"},
	// The group-join takes the same build.
	{"SELECT b.k, COUNT(*), SUM(p.v) FROM p JOIN b ON p.k = b.k GROUP BY b.k ORDER BY b.k", "GroupJoin"},
	{"SELECT b.v, MIN(q.k), COUNT(q.v) FROM q JOIN b ON q.k = b.k GROUP BY b.v ORDER BY b.v", "GroupJoin"},
	// Two keys never take the code index.
	{"SELECT p.v, b.v FROM p JOIN b ON p.k = b.k AND p.v = b.v", "2 key(s)"},
}

// TestCodeJoinMatchesHashJoin runs the corpus on the default engine and
// on one that hashes every build, and wants the same plan and the same
// rows in the same order from both, and the reference executor's rows.
func TestCodeJoinMatchesHashJoin(t *testing.T) {
	cat := codeJoinCatalog(t)
	coded := defaultConfig().engine(cat)
	hashed := defaultConfig().engine(cat)
	hashed.hashCodes = true
	ctx := context.Background()
	for _, c := range codeJoinCorpus {
		got, err := coded.Query(ctx, c.q)
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		want, err := hashed.Query(ctx, c.q)
		if err != nil {
			t.Fatalf("%q (hashed): %v", c.q, err)
		}
		if !strings.Contains(got.Plan, c.plan) {
			t.Errorf("%q: plan lacks %q:\n%s", c.q, c.plan, got.Plan)
		}
		if got.Plan != want.Plan {
			t.Errorf("%q: plans differ:\n%s\nhashed:\n%s", c.q, got.Plan, want.Plan)
		}
		if len(got.Rows) == 0 && !strings.Contains(c.q, "JOIN e ") {
			t.Errorf("%q: no rows", c.q)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%q: rows differ from the hashed build's:\n%v\nhashed:\n%v", c.q, got.Rows, want.Rows)
		}
		ref, err := refQuery(cat, c.q)
		if err != nil {
			t.Fatalf("%q: reference: %v", c.q, err)
		}
		assertSameResult(t, c.q, strings.Contains(c.q, "ORDER BY"), ref, got)
	}
}

// codedKeys returns a coded column of names, coded through d: "" is
// NULL, and a name d lacks is −1, as Dict.Encode codes it.
func codedKeys(d *store.Dict, names ...string) *store.Col {
	c := store.NewCol(store.KindCode, len(names))
	for _, s := range names {
		code, ok := d.Code(s)
		switch {
		case s == "":
			c.Append(store.NullValue())
		case !ok:
			c.Null, c.Int = append(c.Null, false), append(c.Int, -1)
		default:
			c.Null, c.Int = append(c.Null, false), append(c.Int, code)
		}
	}
	return c
}

// plainKeys returns a STRING column of names, "" NULL.
func plainKeys(names ...string) *store.Col {
	c := store.NewCol(store.KindString, len(names))
	for _, s := range names {
		v := store.StringValue(s)
		if s == "" {
			v = store.NullValue()
		}
		c.Append(v)
	}
	return c
}

// openSide drains bbs — key column 0 — into a build side as a join
// opens one, hashed or not.
func openSide(t *testing.T, d *store.Dict, bbs []*batch, hashCodes bool) *hashSide {
	t.Helper()
	e := &equiJoin{buildKeys: []int{0}}
	ec := &execCtx{ctx: context.Background(), arena: &arena{}, hashCodes: hashCodes}
	h, err := e.open(ec, &vecScan{batches: bbs, cancel: canceller{ctx: ec.ctx}, op: &OpStats{}}, []int{0}, &OpStats{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// probePairs probes h with key column pk, at the rows sel, through a
// prober as a join runs one, and returns the pairs found as "probe
// row:build row".
func probePairs(h *hashSide, d *store.Dict, pk *store.Col, sel []int) []string {
	p := h.newProber([]int{0}, d, &arena{})
	var pairs []string
	for p.start(&batch{cols: []*store.Col{pk}, sel: sel, n: pk.Len()}); !p.done(); {
		h.match(p)
		for k := range p.pi {
			pairs = append(pairs, fmt.Sprintf("%d:%d", p.pi[k], p.bi[k]))
		}
	}
	return pairs
}

// wantPairs is the join of probe keys at sel with the build's keys (in
// arrival order) by their names: every probe row in selection order
// with each build row of an equal, non-NULL name, in arrival order.
func wantPairs(build []string, probe []string, sel []int) []string {
	var pairs []string
	for _, i := range sel {
		for j, s := range build {
			if s != "" && s == probe[i] {
				pairs = append(pairs, fmt.Sprintf("%d:%d", i, j))
			}
		}
	}
	return pairs
}

// TestCodeIndexedBuild opens build sides straight from batches, code
// indexed and hashed, and probes each with coded and plain keys: the
// pairs must come out as wantPairs lists them from both, and a keyed
// probe's access keys alike from both.
func TestCodeIndexedBuild(t *testing.T) {
	cat := codeJoinCatalog(t)
	snap := cat.DB.PinSnapshot()
	defer snap.Release()
	d := snap.Dict()
	probeNames := []string{"lo1", "k0", "hi2", "", "k4", "k5", "k1", "zz", "k2", "k0", "k3", "lo0", "hi39"}
	sel := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12} // row 10 is not live
	cases := []struct {
		name    string
		batches [][]string // build keys, a batch each; the first batch's row 1 is not live
		indexed bool
	}{
		{"duplicates and NULLs", [][]string{{"k0", "dead", "k1", "k0", ""}, {"k2", "k0", "k1", "", "k3", "k5", "k2", "k0"}}, true},
		{"one row", [][]string{{"k2", "dead"}}, true},
		{"NULL keys only", [][]string{{"", "dead", ""}}, true},
		{"empty", nil, true},
		{"sparse span", [][]string{{"lo0", "dead", "hi39"}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var bbs []*batch
			var live []string // the build's live keys in arrival order
			for bi, keys := range c.batches {
				b := &batch{cols: []*store.Col{codedKeys(d, keys...)}, n: len(keys)}
				for i, k := range keys {
					if bi == 0 && i == 1 {
						continue
					}
					b.sel = append(b.sel, i)
					live = append(live, k)
				}
				bbs = append(bbs, b)
			}
			hashed, indexed := openSide(t, d, bbs, true), openSide(t, d, bbs, false)
			if hashed.tab == nil || (indexed.tab == nil) != c.indexed {
				t.Fatalf("hashed side has a table: %v; indexed side is code indexed: %v, want %v", hashed.tab != nil, indexed.tab == nil, c.indexed)
			}
			want := wantPairs(live, probeNames, sel)
			for _, probe := range []struct {
				name string
				col  *store.Col
			}{{"coded", codedKeys(d, probeNames...)}, {"plain", plainKeys(probeNames...)}} {
				for side, h := range map[string]*hashSide{"hashed": hashed, "indexed": indexed} {
					if got := probePairs(h, d, probe.col, sel); !reflect.DeepEqual(got, want) {
						t.Errorf("%s probe of the %s side: pairs %v, want %v", probe.name, side, got, want)
					}
				}
			}
			if a, b := hashed.accessKeys(store.KindString, d), indexed.accessKeys(store.KindString, d); !reflect.DeepEqual(a, b) {
				t.Errorf("access keys: hashed %v, indexed %v", a, b)
			}
		})
	}
}

// TestCodeSpan pins the rule that admits a build side to the code index.
func TestCodeSpan(t *testing.T) {
	coded := func(codes ...int64) *batch {
		c := store.NewCol(store.KindCode, len(codes))
		for _, code := range codes {
			if code < 0 {
				c.Append(store.NullValue())
				continue
			}
			c.Null, c.Int = append(c.Null, false), append(c.Int, code)
		}
		return &batch{cols: []*store.Col{c, c}, n: len(codes)}
	}
	plain := &batch{cols: []*store.Col{plainKeys("a")}, n: 1}
	cases := []struct {
		name    string
		bbs     []*batch
		keys    []int
		n       int
		lo      int64
		span    int
		indexed bool
	}{
		{"dense", []*batch{coded(7, 3, 5, -1)}, []int{0}, 4, 3, 5, true},
		{"sixteen slots for eight rows", []*batch{coded(100, 115)}, []int{0}, 8, 100, 16, true},
		{"seventeen codes for eight rows", []*batch{coded(100, 116)}, []int{0}, 8, 0, 0, false},
		{"thirty-two slots for nine rows", []*batch{coded(0, 31)}, []int{0}, 9, 0, 32, true},
		{"NULLs only", []*batch{coded(-1, -1)}, []int{0}, 2, 0, 0, true},
		{"no batches", nil, []int{0}, 0, 0, 0, true},
		{"a plain batch", []*batch{coded(1), plain}, []int{0}, 2, 0, 0, false},
		{"two keys", []*batch{coded(1)}, []int{0, 1}, 1, 0, 0, false},
	}
	for _, c := range cases {
		lo, span, ok := codeSpan(c.bbs, c.keys, c.n)
		if ok != c.indexed || (ok && (lo != c.lo || span != c.span)) {
			t.Errorf("%s: codeSpan = %d, %d, %v; want %d, %d, %v", c.name, lo, span, ok, c.lo, c.span, c.indexed)
		}
	}
}
