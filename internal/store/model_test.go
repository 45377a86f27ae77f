package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The model every check in this file compares the table with is a list
// of (id, begin, end, row) tuples read by linear scans: it shares no
// code and no idea with the slot storage. Rows carry a serial number
// that names the row for its whole life (a replace retires it and
// inserts a row with a new one), so the model learns the IDs
// CommitDeltas hands out by observation and can still insist that
// ID ↔ serial is one-to-one over the whole run — an ID given to a second
// row after its slot was collected and reused would pair one ID with two
// serials.

var modelSchema = MustSchema(
	Column{Name: "k", Kind: KindFloat},
	Column{Name: "g", Kind: KindString},
	Column{Name: "serial", Kind: KindInt},
)

type modelVer struct {
	id, begin, end int64
	row            Row
}

type model struct {
	vers     []modelVer
	commit   int64
	serial   int64
	idOf     map[int64]int64 // serial → id
	serialOf map[int64]int64 // id → serial
}

func newModel() *model {
	return &model{idOf: map[int64]int64{}, serialOf: map[int64]int64{}}
}

func (m *model) newRow(rng *rand.Rand) Row {
	m.serial++
	return m.rowFor(rng, m.serial)
}

// awkwardFloats and awkwardStrings are the keys an index is likeliest
// to misplace (index_model_test.go drives them through the bare index
// forms; here they meet versions, pins and every read path): NaN sorts
// below every number and equals itself, -0 equals +0, "" is a key like
// another and not NULL.
var (
	awkwardFloats  = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
	awkwardStrings = []string{"", "g", "g1x", "g10"}
)

func (m *model) rowFor(rng *rand.Rand, serial int64) Row {
	k := FloatValue(float64(rng.Intn(12)) / 2)
	switch rng.Intn(10) {
	case 0, 1:
		k = NullValue()
	case 2:
		k = FloatValue(awkwardFloats[rng.Intn(len(awkwardFloats))])
	}
	g := StringValue(fmt.Sprintf("g%d", rng.Intn(6)))
	switch rng.Intn(9) {
	case 0:
		g = NullValue()
	case 1:
		g = StringValue(awkwardStrings[rng.Intn(len(awkwardStrings))])
	}
	return Row{k, g, IntValue(serial)}
}

// visible lists the versions a read at v must see.
func (m *model) visible(v int64) []modelVer {
	var out []modelVer
	for _, mv := range m.vers {
		if mv.begin <= v && v < mv.end {
			out = append(out, mv)
		}
	}
	return out
}

// bind records that the table names row serial by id, failing on any
// second pairing of either.
func (m *model) bind(id, serial int64) error {
	if prev, ok := m.idOf[serial]; ok && prev != id {
		return fmt.Errorf("serial %d seen under ids %d and %d", serial, prev, id)
	}
	if prev, ok := m.serialOf[id]; ok && prev != serial {
		return fmt.Errorf("id %d handed out twice: to serials %d and %d", id, prev, serial)
	}
	m.idOf[serial], m.serialOf[id] = id, serial
	return nil
}

func (m *model) insert(id int64, r Row) {
	m.vers = append(m.vers, modelVer{id: id, begin: m.commit, end: verMax, row: slices.Clone(r)})
}

func (m *model) retire(id int64) {
	for i := range m.vers {
		if m.vers[i].id == id && m.vers[i].end == verMax {
			m.vers[i].end = m.commit
		}
	}
}

// adopt pairs the rows a batch inserted (whose IDs the store chose) with
// the IDs now visible under their serials.
func (m *model) adopt(tb *Table, rows []Row) error {
	want := map[int64]Row{}
	for _, r := range rows {
		want[r[2].I] = r
	}
	var err error
	tb.Scan(func(id int64, r Row) bool {
		if _, ok := want[r[2].I]; ok {
			if err = m.bind(id, r[2].I); err != nil {
				return false
			}
			m.insert(id, want[r[2].I])
			delete(want, r[2].I)
		}
		return true
	})
	if err == nil && len(want) > 0 {
		err = fmt.Errorf("%d inserted rows are not visible", len(want))
	}
	return err
}

// step applies one random operation to both the table and the model.
func (m *model) step(db *DB, tb *Table, rng *rand.Rand) error {
	live := m.visible(m.commit)
	pick := func() modelVer { return live[rng.Intn(len(live))] }
	m.commit++
	switch op := rng.Intn(6); {
	case op == 0 || len(live) < 6:
		r := m.newRow(rng)
		id, err := db.Insert("t", r)
		if err != nil {
			return err
		}
		if err := m.bind(id, r[2].I); err != nil {
			return err
		}
		m.insert(id, r)
	case op == 1:
		// The only update the system issues: retire a row and insert its
		// replacement in one delta.
		mv, r := pick(), m.newRow(rng)
		if err := replaceRow(db, "t", mv.id, r); err != nil {
			return err
		}
		m.retire(mv.id)
		return m.adopt(tb, []Row{r})
	case op == 2:
		mv := pick()
		if ok, err := db.Delete("t", mv.id); err != nil || !ok {
			return fmt.Errorf("Delete(%d) = %v, %v", mv.id, ok, err)
		}
		m.retire(mv.id)
	case op == 3:
		// Replay path: deletes by value (one of them matching nothing).
		var dels, ins []Row
		for _, i := range rng.Perm(len(live))[:rng.Intn(3)] {
			dels = append(dels, live[i].row)
			m.retire(live[i].id)
		}
		dels = append(dels, Row{FloatValue(99), StringValue("absent"), IntValue(-1)})
		for i := rng.Intn(4); i > 0; i-- {
			ins = append(ins, m.newRow(rng))
		}
		if err := tb.applyDeltaByValue(dels, ins); err != nil {
			return err
		}
		return m.adopt(tb, ins)
	default:
		d := TableDelta{Table: "t"}
		for _, i := range rng.Perm(len(live))[:rng.Intn(4)] {
			d.DeleteIDs = append(d.DeleteIDs, live[i].id)
			m.retire(live[i].id)
		}
		for i := rng.Intn(6); i >= 0; i-- {
			d.Inserts = append(d.Inserts, m.newRow(rng))
		}
		if err := db.CommitDeltas([]TableDelta{d}); err != nil {
			return err
		}
		return m.adopt(tb, d.Inserts)
	}
	return nil
}

func canonIDRows(ids []int64, rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%d:%q", ids[i], AppendRow(nil, r))
	}
	sort.Strings(out)
	return out
}

func sameStrings(what string, got, want []string) error {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("%s differs:\ngot  %q\nwant %q", what, got, want)
	}
	return nil
}

// check compares every read path of view with the model at version v.
func (m *model) check(tb *Table, view *TableView, v int64, rng *rand.Rand) error {
	ctx := context.Background()
	vis := m.visible(v)
	wantIDs, wantRows := make([]int64, len(vis)), make([]Row, len(vis))
	for i, mv := range vis {
		wantIDs[i], wantRows[i] = mv.id, mv.row
	}
	var gotIDs []int64
	var gotRows []Row
	view.Scan(func(id int64, r Row) bool {
		gotIDs, gotRows = append(gotIDs, id), append(gotRows, slices.Clone(r))
		return true
	})
	if err := sameStrings("Scan", canonIDRows(gotIDs, gotRows), canonIDRows(wantIDs, wantRows)); err != nil {
		return err
	}
	// Two accepts name the one column they read: acceptRows fills only
	// the named columns, so a check reading any other would misjudge.
	accepts := []struct {
		keep func(Row) (bool, error)
		cols []int
	}{
		{func(Row) (bool, error) { return true, nil }, nil},
		{func(r Row) (bool, error) { return r[2].I%3 != 0, nil }, []int{2}},
		{func(r Row) (bool, error) { return !r[1].IsNull() && r[1].S != "g1", nil }, []int{1}},
		{func(r Row) (bool, error) { return r[0].IsNull() || r[2].I%2 == 0, nil }, nil},
	}
	pick := accepts[rng.Intn(len(accepts))]
	base := Access{Accept: acceptRows(tb.dict, len(modelSchema.Columns), pick.cols, pick.keep)}
	if rng.Intn(2) == 0 {
		base.Cols = [][]int{{0}, {2, 0}, {1, 0, 2}, {0, 1}}[rng.Intn(4)]
	}
	run := func(what string, a Access, keyCol int, selects func(Row) bool) error {
		// Until its index is created a column serves no access, and a
		// hash index serves no range: Select refuses those, naming the
		// column.
		if typ, ok := tb.HasIndex(a.Column); a.Column != "" && (!ok || a.Keys == nil && typ != IndexBTree) {
			if _, _, err := view.Select(ctx, a); err == nil || !strings.Contains(err.Error(), a.Column) {
				return fmt.Errorf("%s Select %+v on an index that cannot serve it: err = %v", what, a, err)
			}
			return nil
		}
		var want []Row
		visible := 0
		for _, r := range wantRows {
			if selects(r) {
				visible++
				if ok, _ := pick.keep(r); ok {
					want = append(want, r)
				}
			}
		}
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
		if err == nil {
			err = verifyAccess(a, keyCol, want, visible, RowsFromColBatch(cb, tb.dict), examined)
		}
		if err != nil {
			return fmt.Errorf("%s Select %+v: %w", what, a, err)
		}
		return nil
	}
	bound := func() *Value {
		b := FloatValue(float64(rng.Intn(14))/2 - 0.5)
		switch rng.Intn(8) {
		case 0, 1:
			return nil
		case 2:
			b = FloatValue(awkwardFloats[rng.Intn(len(awkwardFloats))])
		case 3:
			b = IntValue(int64(rng.Intn(7))) // an INT bound on the FLOAT column
		}
		return &b
	}
	lo, hi := bound(), bound()
	ranged := base
	ranged.Column, ranged.Lo, ranged.Hi, ranged.Desc = "k", lo, hi, rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		ranged.Limit = 1 + rng.Intn(9)
	}
	if err := run("range", ranged, 0, func(r Row) bool { return inRange(r[0], lo, hi) }); err != nil {
		return err
	}
	for _, col := range []int{0, 1} {
		keyed := base
		keyed.Column = modelSchema.Columns[col].Name
		keyed.Keys = []Value{StringValue("absent"), NullValue()}
		if col == 0 {
			keyed.Keys = []Value{FloatValue(-3), NullValue()}
		}
		// Keys must be distinct under Compare: 0 stands for -0 too, and
		// an INT key for the FLOAT equal to it.
		for _, i := range rng.Perm(6)[:1+rng.Intn(3)] {
			i++ // zero comes from awkwardFloats, under either sign
			switch {
			case col == 1:
				keyed.Keys = append(keyed.Keys, StringValue(fmt.Sprintf("g%d", i)))
			case i%2 == 0:
				keyed.Keys = append(keyed.Keys, IntValue(int64(i)))
			default:
				keyed.Keys = append(keyed.Keys, FloatValue(float64(i)))
			}
		}
		if col == 0 {
			keyed.Keys = append(keyed.Keys, FloatValue(awkwardFloats[rng.Intn(3)]), FloatValue(math.Inf(1)))
		} else {
			keyed.Keys = append(keyed.Keys, StringValue(awkwardStrings[rng.Intn(len(awkwardStrings))]))
		}
		err := run("keys", keyed, -1, func(r Row) bool {
			for _, k := range keyed.Keys {
				if Equal(r[col], k) {
					return true
				}
			}
			return false
		})
		if err != nil {
			return err
		}
	}
	// The INT column under FLOAT bounds: a fractional bound rounds inward.
	slo, shi := FloatValue(float64(rng.Int63n(m.serial+1))-0.5), FloatValue(float64(rng.Int63n(m.serial+1))+0.5)
	serials := base
	serials.Column, serials.Lo, serials.Hi, serials.Desc = "serial", &slo, &shi, rng.Intn(2) == 0
	if serials.Cols != nil {
		serials.Cols = []int{2, 0} // the ordered check reads the key column
	}
	if err := run("serial range", serials, 2, func(r Row) bool { return inRange(r[2], &slo, &shi) }); err != nil {
		return err
	}
	if err := run("full", base, -1, func(Row) bool { return true }); err != nil {
		return err
	}
	if v != m.commit {
		return nil
	}
	if tb.Len() != len(vis) || tb.Version() != m.commit {
		return fmt.Errorf("Len/Version = %d/%d, model %d/%d", tb.Len(), tb.Version(), len(vis), m.commit)
	}
	return nil
}

// atRest checks what the layout promises once nothing is pinned: an
// empty GC work list and every slot either live or on the free list.
func atRest(tb *Table) error {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	if len(tb.dying) != 0 {
		return fmt.Errorf("at rest: %d dying slots", len(tb.dying))
	}
	if len(tb.end) != tb.live+len(tb.free) {
		return fmt.Errorf("at rest: %d slots for %d live rows + %d free", len(tb.end), tb.live, len(tb.free))
	}
	return nil
}

// TestStorageMatchesModel interleaves every mutation path, index
// creation and pin/release at random, and after each step checks every
// read path at every live pin and at the latest version. The index
// kinds trade places between configurations, and each index is created
// mid-run so its backfill meets retained versions.
func TestStorageMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		tb, err := db.CreateTable("t", modelSchema)
		if err != nil {
			t.Fatal(err)
		}
		kTyp, gTyp := IndexBTree, IndexHash
		if seed%2 == 0 {
			kTyp, gTyp = IndexHash, IndexBTree
		}
		kAt, gAt, serialAt := 20+rng.Intn(60), 20+rng.Intn(60), 20+rng.Intn(60)
		m := newModel()
		type pinned struct {
			h *SnapshotHandle
			v int64
		}
		var pins []pinned
		for step := 0; step < 260; step++ {
			if step == kAt {
				err = tb.CreateIndex("k", kTyp)
			}
			if step == gAt && err == nil {
				err = tb.CreateIndex("g", gTyp)
			}
			if step == serialAt && err == nil {
				err = tb.CreateIndex("serial", IndexBTree)
			}
			if err == nil {
				err = m.step(db, tb, rng)
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if len(pins) < 4 && rng.Intn(6) == 0 {
				pins = append(pins, pinned{db.PinSnapshot(), m.commit})
			}
			if len(pins) > 0 && rng.Intn(8) == 0 {
				i := rng.Intn(len(pins))
				pins[i].h.Release()
				pins = append(pins[:i], pins[i+1:]...)
			}
			latest := db.PinSnapshot()
			view, _ := latest.View("t")
			err = m.check(tb, view, m.commit, rng)
			latest.Release()
			if err != nil {
				t.Fatalf("seed %d step %d latest (v%d): %v", seed, step, m.commit, err)
			}
			for _, p := range pins {
				view, _ := p.h.View("t")
				if view.Version() != p.v {
					t.Fatalf("seed %d: pin reads v%d, taken at v%d", seed, view.Version(), p.v)
				}
				if err := m.check(tb, view, p.v, rng); err != nil {
					t.Fatalf("seed %d step %d pinned v%d (latest v%d): %v", seed, step, p.v, m.commit, err)
				}
			}
			if len(pins) == 0 {
				if err := atRest(tb); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		for _, p := range pins {
			p.h.Release()
		}
		if err := atRest(tb); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if db.DeadVersions() != 0 || db.PinnedVersions() != 0 {
			t.Fatalf("seed %d: %d dead, %d pinned at rest", seed, db.DeadVersions(), db.PinnedVersions())
		}
		db.Close()
	}
}

// TestSlotReuseUnderChurn runs the ingest shape — 512 deletes and 512
// inserts a commit — and checks that collected slots are reused (the
// slot count stays at live + one batch + the most a pin ever retained), that no
// ID is ever issued twice although slots are, and that rows handed out
// before a slot's reuse do not change under the reader.
func TestSlotReuseUnderChurn(t *testing.T) {
	const rows, batch, rounds = 4096, 512, 250
	rng := rand.New(rand.NewSource(5))
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tb, err := db.CreateTable("t", modelSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("k", IndexBTree); err != nil {
		t.Fatal(err)
	}
	m := newModel()
	fresh := func(n int) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = m.newRow(rng)
		}
		return out
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: fresh(rows)}}); err != nil {
		t.Fatal(err)
	}
	issued := map[int64]bool{}
	var live []int64
	note := func() {
		live = live[:0]
		tb.Scan(func(id int64, _ Row) bool { live = append(live, id); return true })
		sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	}
	note()
	for _, id := range live {
		issued[id] = true
	}
	held := tb.Snapshot()
	// A filled batch must hold its cells after its pin is gone and every
	// slot it read is reused.
	view, release := pinView(tb)
	gathered, _, err := selectAll(context.Background(), view, Access{Column: "k", Lo: nil, Hi: nil})
	release()
	if err != nil {
		t.Fatal(err)
	}
	heldCanon, gatheredCanon := canonRows(held), canonRows(RowsFromColBatch(gathered, tb.dict))
	var pin *SnapshotHandle
	retained := 0
	for round := 0; round < rounds; round++ {
		if round%50 == 10 {
			pin = db.PinSnapshot()
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		before := map[int64]bool{}
		for _, id := range live {
			before[id] = true
		}
		if err := db.CommitDeltas([]TableDelta{{Table: "t", DeleteIDs: live[:batch], Inserts: fresh(batch)}}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		note()
		for _, id := range live {
			if !before[id] {
				if issued[id] {
					t.Fatalf("round %d: id %d issued a second time", round, id)
				}
				issued[id] = true
			}
		}
		// Slots are never given back, so the bound is the most a pin
		// has made the table retain so far.
		retained = max(retained, tb.DeadVersions())
		tb.mu.RLock()
		slots := len(tb.end)
		tb.mu.RUnlock()
		if slots > rows+retained+batch {
			t.Fatalf("round %d: %d slots for %d live rows + %d retained + a batch of %d", round, slots, rows, retained, batch)
		}
		if round%50 == 13 {
			pin.Release()
			pin = nil
		}
		if pin == nil {
			if err := atRest(tb); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if len(issued) != rows+rounds*batch {
		t.Fatalf("%d distinct ids issued, want %d", len(issued), rows+rounds*batch)
	}
	if err := sameStrings("held Snapshot", canonRows(held), heldCanon); err != nil {
		t.Fatal(err)
	}
	if err := sameStrings("held Fill", canonRows(RowsFromColBatch(gathered, tb.dict)), gatheredCanon); err != nil {
		t.Fatal(err)
	}
	// Every first-generation slot has been reused by now, so a stale ID
	// must not resolve to its slot's current tenant.
	if _, ok := getRow(tb, 0); ok || deleteRow(tb, 0) {
		t.Fatal("a first-generation id still resolves after its slot was reused")
	}
	if err := db.CommitDeltas([]TableDelta{{Table: "t", DeleteIDs: []int64{0}}}); err == nil {
		t.Fatal("CommitDeltas accepted a delete of a collected row's id")
	}
}

// TestModelUnderConcurrentCommits is the model check from readers that
// pin and read while a committer keeps publishing (run it under -race).
// The committer holds the model's lock across each operation and its
// bookkeeping, so a reader that takes the lock after pinning finds the
// model complete for the version it pinned.
func TestModelUnderConcurrentCommits(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tb, err := db.CreateTable("t", modelSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("k", IndexBTree); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("g", IndexHash); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	m := newModel()
	errs := make(chan error, 4) // one send at most from each of the four goroutines
	var readers, wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				snap := db.PinSnapshot()
				view, _ := snap.View("t")
				v := view.Version()
				mu.Lock()
				frozen := &model{vers: append([]modelVer(nil), m.vers...), commit: -1}
				mu.Unlock()
				err := frozen.check(tb, view, v, rng)
				snap.Release()
				if err != nil {
					errs <- fmt.Errorf("reader at v%d: %w", v, err)
					return
				}
			}
		}(int64(20 + r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for step := 0; ; step++ {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			err := m.step(db, tb, rng)
			mu.Unlock()
			if err != nil {
				errs <- fmt.Errorf("committer step %d: %w", step, err)
				return
			}
		}
	}()
	readers.Wait()
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := atRest(tb); err != nil {
		t.Error(err)
	}
}
