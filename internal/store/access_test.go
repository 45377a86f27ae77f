package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// The oracle for every Access is the path that shares no code with it:
// TableView.Scan at the same pinned version (a full pass — no index, no
// posting verification), filtered and sorted in the test. The fixture
// draws keys from a dozen values so duplicate keys straddle every
// top-k cut, a fifth of the rows carry a NULL key, and one-delta
// replaces move keys inside, outside and across whatever range a check
// draws while older pins still see the old row under its old posting.
// The string column g is coded (its index is a hash index) and read by
// rank under the DB's ranking accessRank, which ranks five of its six
// values: NULL, g5 and the names first committed after the ranking
// (lateN, one row in twenty) have no rank.

var accessSchema = MustSchema(
	Column{Name: "k", Kind: KindFloat},
	Column{Name: "g", Kind: KindString},
	Column{Name: "n", Kind: KindInt},
)

func accessRow(rng *rand.Rand) Row {
	k := FloatValue(float64(rng.Intn(12)) / 2)
	if rng.Intn(5) == 0 {
		k = NullValue()
	}
	g := StringValue(fmt.Sprintf("g%d", rng.Intn(6)))
	if rng.Intn(20) == 0 {
		g = StringValue(fmt.Sprintf("late%d", rng.Intn(40)))
	}
	return Row{k, g, IntValue(int64(rng.Intn(1000)))}
}

func openAccessDB(t testing.TB) (*DB, *Table) {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", accessSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("k", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("g", IndexHash); err != nil {
		t.Fatal(err)
	}
	publishAccessRanks(db)
	return db, tb
}

// accessRank is the access fixture's rank of a g cell: gN ranks 4-N, so
// rank order is not the cells' order, and g5 (like any other string)
// has no rank. publishAccessRanks publishes it as the DB's ranking.
func accessRank(s string) (int64, bool) {
	if len(s) != 2 || s[0] != 'g' || s[1] < '0' || s[1] > '4' {
		return 0, false
	}
	return int64(4 - (s[1] - '0')), true
}

func publishAccessRanks(db *DB) {
	db.PublishRanks("accessRank", 5, func(r int) string { return fmt.Sprintf("g%d", 4-r) })
}

// replaceRow is the only update the system issues: retire row id and
// insert r in one delta.
func replaceRow(db *DB, table string, id int64, r Row) error {
	return db.CommitDeltas([]TableDelta{{Table: table, DeleteIDs: []int64{id}, Inserts: []Row{r}}})
}

// mutate applies one random committed change: a multi-row delta, a key-
// moving replace, or a delete.
func mutate(db *DB, tb *Table, rng *rand.Rand) error {
	var ids []int64
	tb.Scan(func(id int64, _ Row) bool { ids = append(ids, id); return true })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	pick := func() int64 { return ids[rng.Intn(len(ids))] }
	switch op := rng.Intn(4); {
	case op == 0 || len(ids) < 8:
		d := TableDelta{Table: "t"}
		for i := rng.Intn(6); i >= 0; i-- {
			d.Inserts = append(d.Inserts, accessRow(rng))
		}
		if len(ids) > 4 {
			seen := map[int64]bool{}
			for i := rng.Intn(3); i > 0; i-- {
				if id := pick(); !seen[id] {
					seen[id] = true
					d.DeleteIDs = append(d.DeleteIDs, id)
				}
			}
		}
		return db.CommitDeltas([]TableDelta{d})
	case op == 1:
		_, err := db.Delete("t", pick())
		return err
	default:
		return replaceRow(db, "t", pick(), accessRow(rng))
	}
}

func canonRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(AppendRow(nil, r))
	}
	sort.Strings(out)
	return out
}

func projectRows(rows []Row, cols []int) []Row {
	if cols == nil {
		return rows
	}
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = make(Row, len(cols))
		for j, c := range cols {
			out[i][j] = r[c]
		}
	}
	return out
}

// acceptRows is a per-row check in Access.Accept's batch form: each
// candidate of a chunk is rebuilt as a schema-wide row, filled only at
// the columns cols (every column when nil) from the chunk's cells, and
// kept when keep accepts it; an error is keep's, at that candidate's
// position. The row is one scratch row, so the result serves one read
// at a time.
func acceptRows(d *Dict, width int, cols []int, keep func(Row) (bool, error)) func(*Selection) (int, error) {
	row := make(Row, width)
	if cols == nil {
		cols = make([]int, width)
		for i := range cols {
			cols[i] = i
		}
	}
	var cell Col
	return func(chunk *Selection) (int, error) {
		kept := chunk.Slots[:0]
		for k, s := range chunk.Slots {
			for _, c := range cols {
				chunk.FillCol(&cell, c, k, k+1)
				row[c] = d.Value(&cell, 0)
			}
			ok, err := keep(row)
			if err != nil {
				return k, err
			}
			if ok {
				kept = append(kept, s)
			}
		}
		chunk.Slots = kept
		return 0, nil
	}
}

// checkAccess runs a, with keep as its Accept, through view's Select,
// filled once into an exactly sized batch and once a few rows at a time
// into one reused buffer, and compares each with the scan oracle: select says which stored rows qualify, keep which of
// those are emitted, keyCol (≥ 0) that the output must follow that
// column's order.
func checkAccess(view *TableView, a Access, keep func(Row) (bool, error), keyCol int, selects func(Row) bool) error {
	ctx := context.Background()
	a.Accept = acceptRows(view.t.dict, view.t.schema.Len(), nil, keep)
	var want []Row
	visible := 0
	view.Scan(func(_ int64, r Row) bool {
		if selects(r) {
			visible++
			if ok, _ := keep(r); ok {
				want = append(want, slices.Clone(r))
			}
		}
		return true
	})
	if keyCol >= 0 {
		sort.SliceStable(want, func(i, j int) bool {
			c := Compare(want[i][keyCol], want[j][keyCol])
			if a.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	cb, examined, err := selectAll(ctx, view, a)
	if err != nil {
		return err
	}
	if err := verifyAccess(a, keyCol, want, visible, RowsFromColBatch(cb, view.t.dict), examined); err != nil {
		return fmt.Errorf("Select: %w", err)
	}
	// A second Select, filled a few rows at a time into one reused
	// buffer, must pass the same check.
	sel, selExamined, err := view.Select(ctx, a, nil)
	if err != nil {
		return err
	}
	var buf ColBatch
	var filled []Row
	for lo := 0; lo < len(sel.Slots); lo += 3 {
		sel.Fill(&buf, lo, min(lo+3, len(sel.Slots)))
		filled = append(filled, RowsFromColBatch(&buf, view.t.dict)...)
	}
	if err := verifyAccess(a, keyCol, want, visible, filled, selExamined); err != nil {
		return fmt.Errorf("Select, filled in pieces: %w", err)
	}
	return nil
}

// verifyAccess compares one read's output with the oracle's qualifying
// rows (already in key order when keyCol ≥ 0).
func verifyAccess(a Access, keyCol int, want []Row, visible int, got []Row, examined int) error {
	n := len(want)
	if a.Limit > 0 && a.Limit < n {
		n = a.Limit
	}
	// A walk that never reaches its limit touches every qualifying row.
	if (a.Limit == 0 || a.Limit > len(want)) && examined != visible {
		return fmt.Errorf("examined %d rows, %d visible rows qualify", examined, visible)
	}
	if len(got) != n {
		return fmt.Errorf("got %d rows, want %d", len(got), n)
	}
	if keyCol < 0 || n == len(want) {
		if g, w := canonRows(got), canonRows(projectRows(want, a.Cols)); fmt.Sprint(g) != fmt.Sprint(w) {
			return fmt.Errorf("row multiset differs:\ngot  %q\nwant %q", g, w)
		}
	}
	if keyCol < 0 {
		return nil
	}
	// Ordered: the key sequence is exact; under a limit, rows tied with
	// the cut key may be any of the tied rows, the rest are exact.
	outKey := keyCol
	for j, c := range a.Cols {
		if c == keyCol {
			outKey = j
		}
	}
	all := map[string]int{}
	for _, s := range canonRows(projectRows(want, a.Cols)) {
		all[s]++
	}
	for i, r := range got {
		if Compare(r[outKey], want[i][keyCol]) != 0 {
			return fmt.Errorf("key %d is %v, want %v", i, r[outKey], want[i][keyCol])
		}
		s := string(AppendRow(nil, r))
		if all[s]--; all[s] < 0 {
			return fmt.Errorf("row %v is not among the qualifying rows", r)
		}
	}
	return nil
}

// inRange is the oracle's range test: v is not NULL and lies within
// the inclusive bounds (nil is open).
func inRange(v Value, lo, hi *Value) bool {
	return !v.IsNull() && (lo == nil || Compare(v, *lo) >= 0) && (hi == nil || Compare(v, *hi) <= 0)
}

// randomChecks draws a range walk, a key union, a rank range and a
// projected full read and checks each against view.
func randomChecks(view *TableView, rng *rand.Rand) error {
	accept := func(Row) (bool, error) { return true, nil }
	if rng.Intn(2) == 0 {
		accept = func(r Row) (bool, error) { return r[2].I%3 != 0, nil }
	}
	var cols []int
	if rng.Intn(2) == 0 {
		cols = [][]int{{0}, {2, 0}, {1, 0, 2}, {0, 1}}[rng.Intn(4)]
	}
	bound := func() *Value {
		if rng.Intn(4) == 0 {
			return nil
		}
		v := FloatValue(float64(rng.Intn(14))/2 - 0.5)
		return &v
	}
	lo, hi := bound(), bound()
	rangeAccess := Access{Column: "k", Lo: lo, Hi: hi, Desc: rng.Intn(2) == 0, Cols: cols}
	if rng.Intn(2) == 0 {
		rangeAccess.Limit = 1 + rng.Intn(9)
	}
	if err := checkAccess(view, rangeAccess, accept, 0, func(r Row) bool { return inRange(r[0], lo, hi) }); err != nil {
		return fmt.Errorf("range %+v: %w", rangeAccess, err)
	}
	keys := []Value{StringValue("absent")}
	member := map[string]bool{}
	for _, i := range rng.Perm(6)[:1+rng.Intn(4)] {
		keys = append(keys, StringValue(fmt.Sprintf("g%d", i)))
		member[fmt.Sprintf("g%d", i)] = true
	}
	union := Access{Column: "g", Keys: keys, Cols: cols}
	if err := checkAccess(view, union, accept, -1, func(r Row) bool { return member[r[1].S] }); err != nil {
		return fmt.Errorf("union %v: %w", keys, err)
	}
	rankBound := func() *Value {
		if rng.Intn(4) == 0 {
			return nil
		}
		v := IntValue(int64(rng.Intn(7)) - 1)
		return &v
	}
	rlo, rhi := rankBound(), rankBound()
	byRank := Access{Column: "g", Rank: "accessRank", Lo: rlo, Hi: rhi, Cols: cols}
	ranked := func(r Row) bool {
		k, ok := accessRank(r[1].S)
		return ok && !r[1].IsNull() && inRange(IntValue(k), rlo, rhi)
	}
	if err := checkAccess(view, byRank, accept, -1, ranked); err != nil {
		return fmt.Errorf("rank range %+v: %w", byRank, err)
	}
	// A column with no index serves nothing: the read is refused.
	byN := Access{Column: "n", Keys: []Value{IntValue(int64(rng.Intn(1000))), IntValue(7)}, Cols: cols}
	if _, _, err := view.Select(context.Background(), byN, nil); err == nil {
		return fmt.Errorf("unindexed keys: Select accepted %+v", byN)
	}
	if err := checkAccess(view, Access{Cols: cols}, accept, -1, func(Row) bool { return true }); err != nil {
		return fmt.Errorf("full read: %w", err)
	}
	return nil
}

func TestAccessMatchesScanOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		db, tb := openAccessDB(t)
		var pins []*SnapshotHandle
		for step := 0; step < 150; step++ {
			if err := mutate(db, tb, rng); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if step%9 == 0 {
				pins = append(pins, db.PinSnapshot())
				if len(pins) > 4 {
					pins[0].Release()
					pins = pins[1:]
				}
			}
			// The latest version, at a pin taken for the check, then the
			// older pins.
			fresh := db.PinSnapshot()
			for _, p := range append([]*SnapshotHandle{fresh}, pins...) {
				v, err := p.View("t")
				if err != nil {
					t.Fatal(err)
				}
				if err := randomChecks(v, rng); err != nil {
					t.Fatalf("seed %d step %d at version %d (latest %d): %v", seed, step, v.Version(), tb.Version(), err)
				}
			}
			fresh.Release()
		}
		for _, p := range pins {
			p.Release()
		}
		if n := db.ActiveSnapshots(); n != 0 {
			t.Fatalf("seed %d: %d snapshots still active", seed, n)
		}
		if n := db.DeadVersions(); n != 0 {
			t.Fatalf("seed %d: %d dead versions after the last release", seed, n)
		}
		// At rest GC has dropped every retired row's rank posting.
		ranked := 0
		tb.Scan(func(_ int64, r Row) bool {
			if _, ok := accessRank(r[1].S); ok {
				ranked++
			}
			return true
		})
		if n := tb.CountPostings(Access{Column: "g", Rank: "accessRank"}, 0); n != ranked {
			t.Fatalf("seed %d: the rank index holds %d postings at rest, %d live rows have a rank", seed, n, ranked)
		}
		db.Close()
	}
}

// TestRankIndex: a coded column read by rank under the DB's ranking
// finds only the cells a rank names — no NULL, no unranked string —
// answers ranges and counts over them, and is refused on an uncoded
// column, on a frozen table and before a ranking is published. A
// ranking is kept for the same source and replaced for another — a read
// by the replaced source is then refused — and belongs to the process:
// Indexes omits it, a checkpoint and a reopen restore none, and the WAL
// replays the rows as it would without one.
func TestRankIndex(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", accessSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(tb.CreateIndex("g", IndexHash), tb.CreateIndex("n", IndexHash)); err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{FloatValue(1), StringValue("g0"), IntValue(1)},
		{FloatValue(2), NullValue(), IntValue(2)},
		{FloatValue(3), StringValue("g5"), IntValue(3)},
		{FloatValue(4), StringValue("g4"), IntValue(4)},
		{FloatValue(5), StringValue("g0"), IntValue(5)},
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	// nsBy reads the n cells of the rows a rank range of column g under
	// the ranking from source selects, sorted; ns reads accessRank's.
	nsBy := func(tb *Table, source any, lo, hi *Value) ([]int64, error) {
		snap := db.PinSnapshot()
		defer snap.Release()
		v, err := snap.View(tb.Name())
		if err != nil {
			return nil, err
		}
		cb, _, err := selectAll(context.Background(), v, Access{Column: "g", Rank: source, Lo: lo, Hi: hi, Cols: []int{2}})
		if err != nil {
			return nil, err
		}
		var out []int64
		for _, r := range RowsFromColBatch(cb, nil) {
			out = append(out, r[0].I)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	ns := func(tb *Table, lo, hi *Value) ([]int64, error) { return nsBy(tb, "accessRank", lo, hi) }
	if _, err := ns(tb, nil, nil); err == nil || tb.RankedBy("g", "accessRank") {
		t.Fatal("a rank range was served before any ranking was published")
	}
	publishAccessRanks(db)
	one, four := IntValue(1), IntValue(4)
	for _, c := range []struct {
		lo, hi *Value
		want   string
	}{
		{nil, nil, "[1 4 5]"},  // g0 ranks 4, g4 ranks 0; NULL and g5 have no rank
		{&one, &four, "[1 5]"}, // ranks 1..4: g0's
		{nil, &one, "[4]"},     // ranks ≤ 1: g4's
		{&four, &one, "[]"},    // an empty range
	} {
		got, err := ns(tb, c.lo, c.hi)
		if err != nil || fmt.Sprint(got) != c.want {
			t.Fatalf("rank range [%v, %v]: %v (err %v), want %s", c.lo, c.hi, got, err, c.want)
		}
	}
	if n := tb.CountPostings(Access{Column: "g", Rank: "accessRank"}, 0); n != 3 {
		t.Fatalf("the rank read counts %d postings, want 3", n)
	}
	if !tb.RankedBy("g", "accessRank") || tb.RankedBy("g", "other") || tb.RankedBy("k", "accessRank") || tb.RankedBy("n", "accessRank") {
		t.Fatal("RankedBy does not report the coded column and the ranking's source")
	}
	snap := db.PinSnapshot()
	if v, err := snap.View("t"); err != nil {
		t.Fatal(err)
	} else if _, _, err := v.Select(context.Background(), Access{Column: "n", Rank: "accessRank"}, nil); err == nil {
		t.Fatal("an INT column's hash index served a rank range")
	}
	snap.Release()
	if specs := tb.Indexes(); fmt.Sprint(specs) != "[{g hash} {n hash}]" {
		t.Fatalf("Indexes lists %v, want the hash indexes alone", specs)
	}
	kept := db.dict.rank
	if publishAccessRanks(db); db.dict.rank != kept {
		t.Fatal("re-publishing the ranking from its source replaced it")
	}
	db.PublishRanks("none", 5, func(int) string { return "" })
	if !tb.RankedBy("g", "none") {
		t.Fatal("a ranking from another source did not replace the first")
	}
	if got, err := nsBy(tb, "none", nil, nil); err != nil || len(got) != 0 {
		t.Fatalf("the replacing ranking reads %v (err %v), want no row", got, err)
	}
	// A read names the source it plans by: the replaced one is refused.
	if _, err := ns(tb, nil, nil); err == nil {
		t.Fatal("a read by the replaced ranking's source was served")
	}
	publishAccessRanks(db)
	frozen, err := db.PublishFrozen("f", accessSchema, FrozenImage{Rows: 1, Cols: []Col{
		{Kind: KindFloat, Float: []float64{1}}, {Kind: KindString, Str: []string{"g0"}}, {Kind: KindInt, Int: []int64{1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns(frozen, nil, nil); err == nil || frozen.RankedBy("g", "accessRank") {
		t.Fatal("a frozen table served a rank range")
	}
	// A checkpoint, then a commit the WAL alone holds, then a reopen.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	more := []Row{{FloatValue(6), StringValue("g1"), IntValue(6)}}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: more}}); err != nil {
		t.Fatal(err)
	}
	if got, err := ns(tb, nil, nil); err != nil || fmt.Sprint(got) != "[1 4 5 6]" {
		t.Fatalf("after a commit the rank range reads %v (err %v), want [1 4 5 6]", got, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if tb, err = db.Table("t"); err != nil {
		t.Fatal(err)
	}
	if tb.RankedBy("g", "accessRank") || tb.Len() != 6 || fmt.Sprint(tb.Indexes()) != "[{g hash} {n hash}]" {
		t.Fatalf("reopened: ranked %v, %d rows, indexes %v; want no ranking, 6 rows, the hash indexes", tb.RankedBy("g", "accessRank"), tb.Len(), tb.Indexes())
	}
	if _, err := ns(tb, nil, nil); err == nil {
		t.Fatal("a reopened table served a rank range with no ranking")
	}
	publishAccessRanks(db)
	if got, err := ns(tb, nil, nil); err != nil || fmt.Sprint(got) != "[1 4 5 6]" {
		t.Fatalf("ranked again over the replayed rows the rank range reads %v (err %v), want [1 4 5 6]", got, err)
	}
}

// TestAccessUnderConcurrentCommits runs the same oracle from readers
// that pin, check and release while a committer keeps publishing (run
// under -race): a pinned read must equal the scan of its own version
// whatever lands meanwhile, and nothing may stay pinned or running.
func TestAccessUnderConcurrentCommits(t *testing.T) {
	baseline := runtime.NumGoroutine()
	db, tb := openAccessDB(t)
	seedRng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		if err := mutate(db, tb, seedRng); err != nil {
			t.Fatal(err)
		}
	}
	commits := 400
	if testing.Short() {
		commits = 100
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < commits; i++ {
			if err := mutate(db, tb, rng); err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := db.PinSnapshot()
				view, err := snap.View("t")
				if err == nil {
					err = randomChecks(view, rng)
				}
				snap.Release()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if n := db.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots still active", n)
	}
	if n := db.PinnedVersions(); n != 0 {
		t.Fatalf("%d versions still pinned", n)
	}
	db.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines at rest: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestAccessPollsContext: a read over many postings notices a context
// cancelled while it runs, on the index paths and the full pass alike.
func TestAccessPollsContext(t *testing.T) {
	db, tb := openAccessDB(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 4*pollEvery; i++ {
		if _, err := insertRow(tb, accessRow(rng)); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]Value, 6)
	for i := range keys {
		keys[i] = StringValue(fmt.Sprintf("g%d", i))
	}
	for name, a := range map[string]Access{
		"ordered walk": {Column: "k", Desc: true},
		"key union":    {Column: "g", Keys: keys},
		"full pass":    {},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		a.Accept = acceptRows(tb.dict, 3, nil, func(Row) (bool, error) {
			if seen++; seen == 10 {
				cancel()
			}
			return true, nil
		})
		snap := db.PinSnapshot()
		view, _ := snap.View("t")
		cb, _, err := selectAll(ctx, view, a)
		snap.Release()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if cb.Rows >= 2*pollEvery {
			t.Fatalf("%s: read %d rows after the cancel", name, cb.Rows)
		}
		cancel()
	}
}

// TestAccessAcceptError: an Accept error aborts the read and surfaces.
func TestAccessAcceptError(t *testing.T) {
	_, tb := openAccessDB(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		insertRow(tb, accessRow(rng))
	}
	boom := errors.New("boom")
	view, release := pinView(tb)
	defer release()
	_, examined, err := view.Select(context.Background(), Access{Column: "k", Accept: acceptRows(tb.dict, 3, nil, func(Row) (bool, error) { return false, boom })}, nil)
	if !errors.Is(err, boom) || examined != 1 {
		t.Fatalf("err = %v after %d rows, want boom after 1", err, examined)
	}
}

// TestAcceptChunkBoundaries: Accept sees candidates a chunk at a time,
// and a read still examines and emits exactly what a row-at-a-time
// check would — the per-row model below — at every Limit around a chunk
// boundary and past the posting count, in an ascending walk, a
// descending one and a key union, with a rejecting Accept and with one
// that fails at a given row; and, without a limit or with one past the
// slot list's first capacity, while the list grows under the candidates
// waiting in it.
func TestAcceptChunkBoundaries(t *testing.T) {
	_, tb := openAccessDB(t)
	const rows = 2500
	for i := 0; i < rows; i++ {
		insertRow(tb, Row{FloatValue(float64(i)), StringValue(fmt.Sprintf("g%d", i%2)), IntValue(int64(i))})
	}
	view, release := pinView(tb)
	defer release()
	keep := func(r Row) (bool, error) { return r[2].I%3 != 0, nil }
	boom := errors.New("boom")
	failAt := func(n int64) func(Row) (bool, error) {
		return func(r Row) (bool, error) {
			if r[2].I == n {
				return false, boom
			}
			return keep(r)
		}
	}
	walks := map[string]struct {
		a     Access
		order func(i int) int64 // the n of the walk's i-th posting
	}{
		"ascending":  {Access{Column: "k"}, func(i int) int64 { return int64(i) }},
		"descending": {Access{Column: "k", Desc: true}, func(i int) int64 { return int64(rows - 1 - i) }},
		"key union": {Access{Column: "g", Keys: []Value{StringValue("g1"), StringValue("g0")}}, func(i int) int64 {
			if i < rows/2 {
				return int64(2*i + 1)
			}
			return int64(2 * (i - rows/2))
		}},
	}
	for name, w := range walks {
		for _, limit := range []int{1, acceptChunk - 1, acceptChunk, acceptChunk + 1, 3*acceptChunk + 7, pollEvery + 7, 0, rows + 1} {
			for _, fail := range []int64{-1, w.order(2*acceptChunk + 3)} {
				check := keep
				if fail >= 0 {
					check = failAt(fail)
				}
				var want []int64
				examined, failed := 0, false
				for i := 0; i < rows && (limit == 0 || len(want) < limit); i++ {
					n := w.order(i)
					examined++
					if n == fail {
						failed = true
						break
					}
					if n%3 != 0 {
						want = append(want, n)
					}
				}
				a := w.a
				a.Limit, a.Cols = limit, []int{2}
				a.Accept = acceptRows(view.t.dict, 3, []int{2}, check)
				cb, gotExamined, err := selectAll(context.Background(), view, a)
				what := fmt.Sprintf("%s, limit %d, failing at n=%d", name, limit, fail)
				if failed != (err != nil) || (err != nil && !errors.Is(err, boom)) {
					t.Fatalf("%s: err = %v, want failure %v", what, err, failed)
				}
				if gotExamined != examined {
					t.Fatalf("%s: examined %d rows, the per-row model %d", what, gotExamined, examined)
				}
				if failed {
					continue
				}
				got := make([]int64, cb.Rows)
				for i := range got {
					got[i] = cb.Cols[0].Int[i]
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: emitted %d rows, the per-row model %d:\n%v\n%v", what, len(got), len(want), got, want)
				}
			}
		}
	}
}

func TestCountPostings(t *testing.T) {
	_, tb := openAccessDB(t)
	for i := 0; i < 100; i++ {
		insertRow(tb, Row{FloatValue(float64(i % 10)), StringValue(fmt.Sprintf("g%d", i%4)), IntValue(int64(i))})
	}
	lo, hi := FloatValue(2), FloatValue(4)
	for _, c := range []struct {
		a    Access
		max  int
		want int
	}{
		{Access{Column: "k", Lo: &lo, Hi: &hi}, 0, 30},
		{Access{Column: "k", Lo: &lo}, 0, 80},
		{Access{Column: "g", Keys: []Value{StringValue("g1"), StringValue("nope"), StringValue("g3")}}, 0, 50},
		{Access{Column: "n", Keys: []Value{IntValue(3)}}, 0, 100}, // no index: a full pass
		{Access{}, 0, 100},
	} {
		if got := tb.CountPostings(c.a, c.max); got != c.want {
			t.Errorf("CountPostings(%+v) = %d, want %d", c.a, got, c.want)
		}
	}
	// A bounded count stops early but still reports "more than max".
	if got := tb.CountPostings(Access{Column: "k"}, 25); got <= 25 || got > 40 {
		t.Errorf("bounded count = %d, want just past 25", got)
	}
}

// TestFilteredGatherSizedExactly: a read whose residual keeps 10 of
// 5 000 postings, filled whole, allocates vectors for the 10 rows, plus
// the list of accepted slots — not a batch's worth of every column
// grown by doubling.
func TestFilteredGatherSizedExactly(t *testing.T) {
	_, tb := openAccessDB(t)
	for i := 0; i < 5000; i++ {
		insertRow(tb, Row{FloatValue(float64(i % 10)), StringValue(fmt.Sprintf("g%d", i%4)), IntValue(int64(i))})
	}
	view, release := pinView(tb)
	defer release()
	a := Access{Column: "k", Accept: acceptRows(tb.dict, 3, []int{2}, func(r Row) (bool, error) { return r[2].I%500 == 1, nil })}
	cb, examined, err := selectAll(context.Background(), view, a)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Rows != 10 || examined != 5000 {
		t.Fatalf("gathered %d rows after examining %d; want 10 of 5000", cb.Rows, examined)
	}
	for i, c := range cb.Cols {
		if cap(c.Null) != 10 || cap(c.Int)+cap(c.Float)+cap(c.Str) != 10 {
			t.Fatalf("column %d has room for %d cells (%d null flags); want 10", i, cap(c.Int)+cap(c.Float)+cap(c.Str), cap(c.Null))
		}
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := selectAll(context.Background(), view, a); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// 10 rows × 35 bytes, the 4 KiB slot list (whose spare room holds the
	// chunks of candidates), the chunk's and the read's Selection and
	// headers.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 6<<10 {
		t.Fatalf("a read of 10 rows allocates %d bytes", per)
	}
}
