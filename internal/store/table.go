package store

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// verMax is the end stamp of a live (undeleted) row version.
const verMax = math.MaxInt64

// CommitEvent describes one committed mutation batch on one table —
// the delta stream incremental overlay maintenance consumes. Version
// is the table's commit version after the batch and Inserted holds the
// rows the committer passed in (consumers must not mutate them). The
// rows the batch retired are read through NumDeleted and DeletedCell,
// in place in the table's storage: a hook runs under the table's write
// lock after the rows are end-stamped and before GC may free their
// slots, so those reads are valid only during the hook call. A consumer
// that keeps the event past the call keeps Detach's copy instead. (When
// the WAL logs the commit, the event reads the rows' log copies.) Hooks
// run synchronously inside the commit critical section, so events
// arrive in strict per-table version order. During the call Code reads
// a coded column's cells as codes, in place.
type CommitEvent struct {
	Table    string
	Version  int64
	Inserted []Row

	// t is the table until Detach: the slots of the retired rows
	// (deleteIDs) and of the inserted ones (inserted) are read in place.
	// deleted, when set, holds copies of the retired rows to read
	// instead.
	t         *Table
	deleteIDs []int64
	inserted  []int32
	deleted   []Row
}

// NumDeleted returns how many rows the batch retired.
func (ev CommitEvent) NumDeleted() int {
	if ev.deleted != nil {
		return len(ev.deleted)
	}
	return len(ev.deleteIDs)
}

// DeletedCell returns column col of the i-th retired row.
func (ev CommitEvent) DeletedCell(i, col int) Value {
	if ev.deleted != nil {
		return ev.deleted[i][col]
	}
	var v Value
	ev.t.loadCell(&v, col, int(uint32(ev.deleteIDs[i])))
	return v
}

// Code returns the dictionary code of column col's cell in the i-th
// inserted row or, with deleted set, the i-th retired row: an array
// read, nullCode (0, no string's) for NULL. ok is false when the column
// is not coded or the event is detached; the cell is then read as a
// Value (Inserted, DeletedCell).
func (ev CommitEvent) Code(col, i int, deleted bool) (c int32, ok bool) {
	if ev.t == nil || ev.t.codes[col] == nil {
		return 0, false
	}
	if deleted {
		return ev.t.codes[col][uint32(ev.deleteIDs[i])], true
	}
	return ev.t.codes[col][ev.inserted[i]], true
}

// Detach returns the event with its retired rows copied out of storage,
// readable after the hook call returns. It must itself be called during
// the call.
func (ev CommitEvent) Detach() CommitEvent {
	if ev.t == nil {
		return ev
	}
	rows := ev.deleted
	if rows == nil {
		sl := newSlab(ev.t, len(ev.deleteIDs))
		rows = make([]Row, len(ev.deleteIDs))
		for i, id := range ev.deleteIDs {
			rows[i] = sl.row(int(uint32(id)))
		}
	}
	return CommitEvent{Table: ev.Table, Version: ev.Version, Inserted: ev.Inserted, deleted: rows}
}

// Table is a multi-version table stored column-wise with optional
// secondary indexes. A row lives in a slot and a slot holds exactly one
// row version: cell c is position slot of the typed vector cols[c],
// visible to reads at commit version v when begin[slot] ≤ v < end[slot]
// (a free slot has end 0 and is visible to nothing). Rows are never
// rewritten in place — a replace retires the old row and inserts the new
// one in a fresh slot, both in one commit. Once no pin can see a retired
// row, GC puts its slot on the free list for inserts to reuse and bumps
// the slot's generation; a row ID is generation<<32 | slot, so IDs are
// stable handles that are never handed out twice and a stale ID never
// resolves to the slot's next tenant.
//
// Every mutation is one delta (applyDeltaLocked: retire these rows,
// insert those) publishing one new commit version; readers either follow
// the latest version or pin one via DB.PinSnapshot and read a frozen,
// consistent image while writers keep committing. The query layer reads
// through a pinned view only: Select resolves the slots it emits under
// the read lock, and the Selection copies their cells out later, outside
// it, under the pin (see Selection). Nothing a read returns aliases
// storage, and the scratch row shown to Scan callbacks is overwritten by
// the next row.
type Table struct {
	name   string
	schema *Schema

	mu sync.RWMutex
	// cols holds one vector per schema column, indexed by slot; Null is
	// nil until the column holds a NULL. A coded column (hash-indexed
	// STRING) holds its cells in codes instead, its Col a KindCode
	// Compute writing them.
	cols     []Col
	codes    [][]int32 // per column: a coded column's codes into dict by slot (never nil), else nil
	dict     *Dict     // the DB's, shared by its tables
	begin    []int64   // per slot: commit version that wrote the row
	end      []int64   // per slot: verMax while live, the deleting version once dead, 0 when free
	gen      []uint32
	free     []int32
	dying    []int32       // slots holding a retired row: the GC work list
	indexes  []*index      // secondary indexes, one a column at most, ordered by column name
	inserted []int32       // the slots the commit being applied filled, for its CommitEvent
	commit   int64         // last published commit version
	live     int           // rows visible at commit
	pins     map[int64]int // pinned commit version → refcount
	gcFloor  int64         // min pin the last GC sweep ran against
	// onCommit, when set, receives one CommitEvent per committed
	// mutation batch, invoked under mu (see CommitEvent).
	onCommit func(CommitEvent)
	// img is set on a frozen table (see DB.PublishFrozen): its current
	// image, which a republish replaces whole. Such a table has no slot
	// bookkeeping, pins or indexes; live and commit mirror the image.
	img *frozenImage
}

// newTable creates an empty table coding its columns into d.
func newTable(name string, schema *Schema, d *Dict) *Table {
	t := &Table{
		name:   name,
		schema: schema,
		cols:   make([]Col, len(schema.Columns)),
		codes:  make([][]int32, len(schema.Columns)),
		dict:   d,
		pins:   make(map[int64]int),
	}
	for c, col := range schema.Columns {
		t.cols[c].Kind = col.Kind
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of rows visible at the latest version.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Version returns the table's commit version: bumped once per
// committed mutation batch. Statement caches key on it and snapshots
// pin it.
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.commit
}

// setOnCommit installs the commit-event hook (DB wires this).
func (t *Table) setOnCommit(fn func(CommitEvent)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onCommit = fn
}

// --- slot storage ---

// allocSlot returns a slot for a new row: a collected one when there
// is any, else one more position on every storage vector.
func (t *Table) allocSlot() int {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		return int(s)
	}
	t.extendLocked(1, 1)
	return len(t.end) - 1
}

// extendLocked makes room for n more slots on every storage vector and
// then adds add ≤ n zeroed slots to each. A commit reserves room for all
// its new slots at once, so its allocSlot calls grow no vector again.
func (t *Table) extendLocked(n, add int) {
	t.begin, t.end, t.gen = extend(t.begin, n, add), extend(t.end, n, add), extend(t.gen, n, add)
	for c := range t.cols {
		col := &t.cols[c]
		switch {
		case t.codes[c] != nil:
			t.setCodes(c, extend(t.codes[c], n, add))
		case col.Kind == KindInt || col.Kind == KindBool:
			col.Int = extend(col.Int, n, add)
		case col.Kind == KindFloat:
			col.Float = extend(col.Float, n, add)
		default:
			col.Str = extend(col.Str, n, add)
		}
		if col.Null != nil {
			col.Null = extend(col.Null, n, add)
		}
	}
}

// extend returns s with room for n more elements and add zeroed ones
// appended (no vector is ever cut, so spare capacity is zero). A vector
// short of room grows as a postings list does, by an eighth (and at
// least 64 slots), or exactly to the room asked for when that is more,
// not rounded to a size class: a churn commit that frees as many slots
// as it fills, but fills before it frees, costs an eighth of the table
// once, and one-row commits stay amortised.
func extend[E any](s []E, n, add int) []E {
	if need := len(s) + n; need > cap(s) {
		s = append(make([]E, 0, max(need, len(s)+len(s)/8+64)), s...)
	}
	return s[:len(s)+add]
}

// setCodes installs vec as coded column c's codes and, when its array
// is a new one, a Compute reading it. A Selection captures the Compute
// with the column, as it captures a vector's header: the array it reads
// is never moved, and slots a pinned view can see are never rewritten.
func (t *Table) setCodes(c int, vec []int32) {
	if old := t.codes[c]; old == nil || cap(old) != cap(vec) {
		t.cols[c].Compute = coder(vec[:cap(vec)])
	}
	t.codes[c] = vec
}

// putLocked writes r into slot s as the version beginning at v and
// returns the row's ID.
func (t *Table) putLocked(s int, v int64, r Row) int64 {
	for c := range t.cols {
		col, cell := &t.cols[c], r[c]
		if cell.K == KindNull && col.Null == nil {
			col.Null = make([]bool, len(t.end), cap(t.end))
		}
		if col.Null != nil {
			col.Null[s] = cell.K == KindNull
		}
		switch {
		case t.codes[c] != nil:
			t.codes[c][s] = nullCode
			if cell.K == KindString {
				t.codes[c][s] = t.dict.intern(cell.S)
			}
		case col.Kind == KindInt || col.Kind == KindBool:
			col.Int[s] = cell.I
		case col.Kind == KindFloat:
			col.Float[s] = cell.F
		default:
			col.Str[s] = cell.S
		}
	}
	t.begin[s], t.end[s] = v, verMax
	return t.idOf(s)
}

// insertLocked stores r in a fresh slot as of version v and indexes it:
// a code index by the code the slot now holds.
func (t *Table) insertLocked(v int64, r Row) int64 {
	s := t.allocSlot()
	id := t.putLocked(s, v, r)
	for _, idx := range t.indexes {
		if idx.dict != nil {
			idx.addCode(t.codes[idx.column][s], id)
		} else {
			idx.insert(r[idx.column], id)
		}
	}
	t.live++
	return id
}

// retireLocked end-stamps the live row in slot s at version v and
// queues the slot for GC.
func (t *Table) retireLocked(s int, v int64) {
	t.end[s] = v
	t.live--
	t.dying = append(t.dying, int32(s))
}

func (t *Table) idOf(s int) int64 { return int64(t.gen[s])<<32 | int64(s) }

// liveSlot resolves id to its slot when the row is visible at the
// latest version: the generation must match (else the ID names an
// earlier tenant of the slot) and the row must be undeleted.
func (t *Table) liveSlot(id int64) (int, bool) {
	s := int(uint32(id))
	return s, id >= 0 && s < len(t.end) && t.gen[s] == uint32(id>>32) && t.end[s] == verMax
}

// stored reconstructs cell i of a vector.
func (c *Col) stored(i int) (v Value) {
	c.loadCell(&v, i)
	return v
}

// loadCell writes column c's cell in slot s over *v, as Col.loadCell
// does, decoding a coded column's code to the dictionary's string.
func (t *Table) loadCell(v *Value, c, s int) {
	if col := &t.cols[c]; t.codes[c] == nil || col.Null != nil && col.Null[s] {
		col.loadCell(v, s)
	} else {
		v.K, v.S = KindString, t.dict.Names()[t.codes[c][s]]
	}
}

// loadRow refreshes the schema-wide row dst with slot s's cells, as
// loadCell loads each, decoding through names (the dictionary's table,
// read once by a caller loading many rows). Each dst cell must be zero
// or an earlier load of the same column, so only its kind and payload
// are written.
func (t *Table) loadRow(names []string, dst Row, s int) {
	cols, codes := t.cols, t.codes
	for c := range cols {
		switch col := &cols[c]; {
		case codes[c] == nil:
			col.loadCell(&dst[c], s)
		case col.Null != nil && col.Null[s]:
			dst[c] = Value{}
		default:
			dst[c].K, dst[c].S = KindString, names[codes[c][s]]
		}
	}
}

// visible reports whether slot s holds a row visible at commit version
// ver.
func (t *Table) visible(s int, ver int64) bool { return t.begin[s] <= ver && ver < t.end[s] }

// loadCell writes cell i of a vector over *v, which must be zero or an
// earlier cell of the same vector. It reads batches and a stored table's
// vectors, never a computed column: a frozen image is read through
// Selection.Fill (scanRows), a coded column through Table.loadCell.
func (c *Col) loadCell(v *Value, i int) {
	switch {
	case c.Null != nil && c.Null[i]:
		*v = Value{}
	case c.Kind == KindFloat:
		v.K, v.F = KindFloat, c.Float[i]
	case c.Kind == KindString:
		v.K, v.S = KindString, c.Str[i]
	default:
		v.K, v.I = c.Kind, c.Int[i]
	}
}

// slab cuts rows materialised from table t's storage out of shared
// allocations: n rows in the first, further chunks only if the caller
// undercounted.
type slab struct {
	t     *Table
	cells []Value
}

func newSlab(t *Table, n int) *slab {
	return &slab{t: t, cells: make([]Value, n*len(t.cols))}
}

// row materialises the row in slot s.
func (sl *slab) row(s int) Row {
	w := len(sl.t.cols)
	if len(sl.cells) < w {
		sl.cells = make([]Value, 256*w)
	}
	r := sl.cells[:w:w]
	sl.cells = sl.cells[w:]
	sl.t.loadRow(sl.t.dict.Names(), r, s)
	return r
}

// CreateIndex builds a secondary index over the named column and
// backfills it (see backfill). Creating an index that already exists
// with the same type is a no-op. A hash index over a STRING column codes
// the column first: its cells become codes into the DB's dictionary
// (see dict), which reads decode.
func (t *Table) CreateIndex(column string, typ IndexType) error {
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("store: table %s has no column %q", t.name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.img != nil {
		return fmt.Errorf("store: table %s is frozen and takes no index", t.name)
	}
	if existing := t.indexOn(column); existing != nil {
		if existing.typ == typ {
			return nil
		}
		return fmt.Errorf("store: column %q already indexed as %v", column, existing.typ)
	}
	idx := newIndex(ci, typ, t.schema.Columns[ci].Kind, t.dict)
	if idx.dict != nil {
		t.codeColumnLocked(ci)
	}
	t.backfill(idx)
	t.indexes = append(t.indexes, idx)
	slices.SortFunc(t.indexes, func(a, b *index) int {
		return strings.Compare(t.schema.Columns[a.column].Name, t.schema.Columns[b.column].Name)
	})
	return nil
}

// indexOn returns the index on column, or nil. A table has a few
// indexes at most, so a scan is the lookup.
func (t *Table) indexOn(column string) *index {
	for _, ix := range t.indexes {
		if t.schema.Columns[ix.column].Name == column {
			return ix
		}
	}
	return nil
}

// codeColumnLocked turns STRING column ci's vector into codes, one a
// slot at the vector's capacity (a free slot and a NULL cell hold
// nullCode). A Selection that captured the string vector keeps reading
// it: nothing writes it again.
func (t *Table) codeColumnLocked(ci int) {
	col := &t.cols[ci]
	codes := make([]int32, len(col.Str), cap(col.Str))
	for s, str := range col.Str {
		if t.end[s] != 0 && (col.Null == nil || !col.Null[s]) {
			codes[s] = t.dict.intern(str)
		}
	}
	col.Kind, col.Str = KindCode, nil
	t.setCodes(ci, codes)
}

// backfill files every stored row into the empty index ix, retired ones
// awaiting GC included (a pinned snapshot may still read them), in slot
// order, a B+-tree's in key order so that every leaf fills. The rows of
// each list that will not move (a code's, the NULL list) are counted
// first — a code index's in one pass over its codes — so that each is
// allocated once at its length; a B+-tree key's list grows as commits
// grow it. While the rows are filed the positions have room for every
// slot; positions no list needed are then dropped.
func (t *Table) backfill(ix *index) {
	ix.post.pos = make([]int32, 0, len(t.end))
	if ix.dict != nil {
		t.backfillCodes(ix)
	} else {
		t.backfillTree(ix)
	}
	if len(ix.post.pos) == 0 {
		ix.post.pos = nil
	}
}

// backfillCodes fills a code index: a code held by one row keeps it
// inline, a code held by more gets a list of exactly their number.
func (t *Table) backfillCodes(ix *index) {
	codes := t.codes[ix.column]
	counts := make([]int32, len(t.dict.Names())) // every code handed out, and more
	for s, c := range codes {
		if t.end[s] != 0 {
			counts[c]++
		}
	}
	ix.byCode = make([]int64, len(counts))
	for c, n := range counts {
		ix.byCode[c] = noRows
		if n > 1 {
			ix.byCode[c] = ^int64(len(ix.post.lists))
			ix.post.lists = append(ix.post.lists, make([]int64, 0, n))
		}
		if n > 0 && c != nullCode {
			ix.keys++
		}
	}
	for s, c := range codes {
		switch at := &ix.byCode[c]; {
		case t.end[s] == 0:
		case *at == noRows:
			*at = t.idOf(s)
		default:
			ix.post.add(int32(^*at), t.idOf(s))
		}
	}
}

// backfillTree fills a B+-tree, its NULL list sized first. No hash
// index codes its column, so the cells are read from its vector.
func (t *Table) backfillTree(ix *index) {
	col := &t.cols[ix.column]
	slots := make([]int32, 0, len(t.end)-len(t.free))
	nulls := 0
	for s := range t.end {
		if t.end[s] == 0 {
			continue
		}
		slots = append(slots, int32(s))
		if col.Null != nil && col.Null[s] {
			nulls++
		}
	}
	ix.post.lists[nullList] = make([]int64, 0, nulls)
	slices.SortFunc(slots, func(a, b int32) int { return Compare(col.stored(int(a)), col.stored(int(b))) })
	for _, s := range slots {
		ix.insert(col.stored(int(s)), t.idOf(int(s)))
	}
}

// RankedBy reports whether column is coded and the DB's ranking was
// published from source (DB.PublishRanks): an Access naming source reads
// it by rank.
func (t *Table) RankedBy(column string, source any) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.indexOn(column)
	return ix != nil && ix.dict != nil && t.dict.ranking(source) != nil
}

// IndexSpec describes one secondary index for introspection.
type IndexSpec struct {
	Column string
	Type   IndexType
}

// Indexes lists the table's secondary indexes sorted by column name,
// so a caller cloning a table's physical layout can recreate them on
// the copy. Rank indexes are not listed.
func (t *Table) Indexes() []IndexSpec {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.img != nil {
		return slices.Clone(t.img.indexes)
	}
	out := make([]IndexSpec, len(t.indexes))
	for i, ix := range t.indexes {
		out[i] = IndexSpec{Column: t.schema.Columns[ix.column].Name, Type: ix.typ}
	}
	return out
}

// HasIndex reports whether column has an index and of which type.
func (t *Table) HasIndex(column string) (IndexType, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.img != nil {
		if i := slices.IndexFunc(t.img.indexes, func(ix IndexSpec) bool { return ix.Column == column }); i >= 0 {
			return t.img.indexes[i].Type, true
		}
		return 0, false
	}
	idx := t.indexOn(column)
	if idx == nil {
		return 0, false
	}
	return idx.typ, true
}

// Scan calls fn for every latest-version row in storage order until fn
// returns false. The row passed to fn is a scratch copy overwritten by
// the next call: it must not be retained. Statements read through
// TableView.Select; Scan serves integrate's sync diff, core's protein
// loader and the repository benchmark.
func (t *Table) Scan(fn func(id int64, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	scanRows(t.latestLocked(), fn)
}

// Snapshot returns copies of every row visible at the latest version,
// in storage order, cut from one allocation. Only the repository
// benchmark calls it.
func (t *Table) Snapshot() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out, cells := make([]Row, 0, t.live), make([]Value, 0, t.live*len(t.cols))
	scanRows(t.latestLocked(), func(_ int64, r Row) bool {
		cells = append(cells, r...)
		out = append(out, cells[len(cells)-len(r):len(cells):len(cells)])
		return true
	})
	return out
}

// reader is one image of a table that reads run against, under the
// table's read lock: a frozen image when img is set, else the stored
// table t at commit version ver. Scan, Snapshot, CountPostings and
// Select all read through one. It dispatches by a branch rather than
// an interface so the callbacks of a walk stay on the stack.
type reader struct {
	t   *Table
	ver int64
	img *frozenImage
}

// walk calls fn with the slot of every row the access selects, in
// access order, until fn returns false, polling poll (when set) as it
// goes.
func (r reader) walk(poll func() error, a Access, fn func(s int) bool) error {
	if r.img != nil {
		return r.img.walk(poll, a, fn)
	}
	return r.t.walkLocked(poll, r.ver, a, fn)
}

// countPostings is CountPostings on this image.
func (r reader) countPostings(a Access, max int) int {
	if r.img != nil {
		return r.img.countPostings(a, max)
	}
	return r.t.countPostingsLocked(a, max)
}

// storage returns the column vectors, indexed by slot.
func (r reader) storage() []Col {
	if r.img != nil {
		return r.img.cols
	}
	return r.t.cols
}

// latestLocked is the reader of the latest version; the caller holds
// the read lock.
func (t *Table) latestLocked() reader { return reader{t: t, ver: t.commit, img: t.img} }

// scanRows calls fn with every row r holds, in storage order, in one
// scratch row. A frozen image is read as the executor reads it, through
// Selection.Fill a chunk of slots at a time, so a computed column is
// computed once a chunk rather than once a cell.
func scanRows(r reader, fn func(id int64, row Row) bool) {
	cols := r.storage()
	scratch := make(Row, len(cols))
	if r.img == nil {
		names := r.t.dict.Names()
		_ = r.walk(nil, Access{}, func(s int) bool { // a pass without poll cannot fail
			r.t.loadRow(names, scratch, s)
			return fn(r.t.idOf(s), scratch)
		})
		return
	}
	sel, chunk := &Selection{cols: cols, Slots: make([]int32, 0, min(scanChunk, r.img.n))}, &ColBatch{}
	for lo := 0; lo < r.img.n; lo += scanChunk {
		sel.Slots = sel.Slots[:0]
		for s := lo; s < min(lo+scanChunk, r.img.n); s++ {
			sel.Slots = append(sel.Slots, int32(s))
		}
		sel.Fill(chunk, 0, len(sel.Slots))
		for k := range chunk.Rows {
			for c := range chunk.Cols {
				chunk.Cols[c].loadCell(&scratch[c], k)
			}
			if !fn(int64(lo+k), scratch) {
				return
			}
		}
	}
}

// scanChunk is the slots scanRows fills from a frozen image at a time.
const scanChunk = 256

// Access describes one read of a table: which rows, in what order,
// which columns, and how many. It is the one way the query layer
// reaches stored rows — every scan, index probe, ordered walk and
// key union is an Access handed to TableView.Select, which resolves it
// in a single pass under one read lock. A read on a column goes through
// that column's index and nothing else: any index serves Keys, only a
// B+-tree serves a range, and an access no index serves is an error.
type Access struct {
	// Column names the index that drives the read; "" reads every
	// visible row in storage order.
	Column string
	// Keys, when non-nil, are equality probes on Column: rows come out
	// grouped by key in list order. Keys must be distinct.
	Keys []Value
	// Rank, when set, reads coded Column's index by rank under the DB's
	// ranking, provided Rank is the source it was published from
	// (DB.PublishRanks): Keys, Lo and Hi are then ranks, and a rank's
	// rows come out under it, in rank order.
	Rank any
	// Lo and Hi bound a range walk over Column (inclusive; nil is open),
	// used when Keys is nil. Rows come out in key order, descending when
	// Desc is set. NULL keys never qualify.
	Lo, Hi *Value
	Desc   bool
	// Cols lists the columns to emit, in output order; nil emits all.
	Cols []int
	// Limit stops the read after that many emitted rows; 0 is no limit.
	Limit int
	// Accept, when set, decides which of the visible rows the walk
	// reaches are emitted. It is shown them a chunk at a time, in access
	// order, as a Selection whose Slots are the chunk's rows and whose
	// columns are the table's, by schema position: it fills the ones it
	// reads (FillCol) and narrows Slots in place to the rows it emits. A
	// chunk holds at most acceptChunk rows and never more than Limit
	// still allows, so a walk stops at the row a row-at-a-time check
	// would stop at. Accept runs under the table's read lock, so it must
	// not touch the store. An error aborts the read; Accept returns with
	// it the position in the chunk of the row that raised it.
	Accept func(chunk *Selection) (int, error)
}

// outputCols resolves Cols against the schema: nil is every column.
func (a Access) outputCols(s *Schema) []int {
	if a.Cols != nil {
		return a.Cols
	}
	cols := make([]int, len(s.Columns))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// pollEvery is how many postings a read visits between polls of its
// caller's context (poll is nil for the store's own context-free passes).
const pollEvery = 1024

// acceptChunk is the most rows Access.Accept is shown at once. A reader
// sizes its buffers to a chunk once a read, so a short chunk keeps a
// read's allocation small; the call costs little against 32 rows.
const acceptChunk = 32

// indexFor returns the index that can serve the access, or nil: any
// index answers key probes, only a B+-tree walks a range, and a code
// index reads by rank under a ranking from a.Rank (returned with it).
func (t *Table) indexFor(a Access) (*index, *ranking) {
	idx := t.indexOn(a.Column)
	switch {
	case idx == nil:
		return nil, nil
	case a.Rank != nil:
		if rk := t.dict.ranking(a.Rank); rk != nil && idx.dict != nil {
			return idx, rk
		}
		return nil, nil
	case a.Keys == nil && idx.typ != IndexBTree:
		return nil, nil
	}
	return idx, nil
}

// unserved is the error for an access on a column no index serves: an
// unknown column, one without an index, or a hash index asked for a
// range.
func unserved(table string, schema *Schema, a Access) error {
	if schema.ColumnIndex(a.Column) < 0 {
		return fmt.Errorf("store: table %s has no column %q", table, a.Column)
	}
	if a.Rank != nil {
		return fmt.Errorf("store: table %s has no coded column %s ranked by %v", table, a.Column, a.Rank)
	}
	if a.Keys == nil {
		return fmt.Errorf("store: table %s has no B+-tree index on column %s to walk a range by", table, a.Column)
	}
	return fmt.Errorf("store: table %s has no index on column %s to probe", table, a.Column)
}

// walkLocked calls fn with the slot of every row the access selects at
// commit version ver, in access order, until fn returns false: every
// visible row in storage order for a full pass, else the postings of
// the column's index. A slot has one posting per index, so each visible
// row surfaces exactly once, under its own key, with no dedup state.
func (t *Table) walkLocked(poll func() error, ver int64, a Access, fn func(s int) bool) error {
	if a.Column == "" {
		return t.passLocked(poll, ver, fn)
	}
	idx, rk := t.indexFor(a)
	if idx == nil {
		return unserved(t.name, t.schema, a)
	}
	var err error
	visited := 0
	postings := func(ids []int64) bool {
		for _, id := range ids {
			if visited++; poll != nil && visited%pollEvery == 0 {
				if err = poll(); err != nil {
					return false
				}
			}
			if s := int(uint32(id)); t.visible(s, ver) && !fn(s) {
				return false
			}
		}
		return true
	}
	switch {
	case a.Keys != nil:
		for _, k := range a.Keys {
			if !postings(idx.getKey(rk, k)) {
				break
			}
		}
	case rk != nil:
		idx.walkRanks(rk, a.Lo, a.Hi, a.Desc, postings)
	default:
		idx.walk(a.Lo, a.Hi, a.Desc, postings)
	}
	return err
}

// passLocked is the full pass, a loop over the slots: every row visible
// at ver, in storage order.
func (t *Table) passLocked(poll func() error, ver int64, fn func(s int) bool) error {
	for s := range t.end {
		if poll != nil && (s+1)%pollEvery == 0 {
			if err := poll(); err != nil {
				return err
			}
		}
		if t.visible(s, ver) && !fn(s) {
			return nil
		}
	}
	return nil
}

// acceptSlots runs the access on r through its Accept, applying Limit,
// and appends the slots of the rows it emits to slots. Candidates
// collect behind the emitted slots, in the list's spare capacity — grown
// only once emitted rows fill it — and go to Accept a chunk at a time.
// It returns the list and how many visible rows the walk examined: the
// candidates Accept was shown, up to and including the one that failed.
func acceptSlots(r reader, poll func() error, a Access, slots []int32) (_ []int32, examined int, err error) {
	chunk := &Selection{cols: r.storage()}
	emitted := len(slots)
	flush := func() bool {
		chunk.Slots = slots[emitted:len(slots):len(slots)]
		at, aerr := a.Accept(chunk)
		if aerr != nil {
			examined += at + 1
			err = aerr
			return false
		}
		examined += len(slots) - emitted
		emitted += copy(slots[emitted:], chunk.Slots)
		slots = slots[:emitted]
		return a.Limit <= 0 || emitted < a.Limit
	}
	werr := r.walk(poll, a, func(s int) bool {
		if len(slots) == cap(slots) { // no candidate waits: a full chunk was flushed
			slots = slices.Grow(slots, 1)
		}
		slots = append(slots, int32(s))
		room := min(cap(slots)-emitted, acceptChunk)
		if a.Limit > 0 {
			room = min(room, a.Limit-emitted)
		}
		return len(slots)-emitted < room || flush()
	})
	if err == nil && werr == nil && len(slots) > emitted {
		flush()
	}
	if err == nil {
		err = werr
	}
	return slots[:emitted], examined, err
}

// CountPostings returns how many index postings the access would visit
// — an upper bound on the rows it can emit, exact but for retired rows
// awaiting GC — giving up once the count passes max (≤ 0 counts them
// all). It is the planner's cardinality source, with DistinctKeys: it
// sizes access paths, scan estimates and the keyed probe from it, and
// Select sizes its slot list. A range is counted in ascending key order
// whatever a.Desc says, a leaf at a time. A full pass counts every
// stored row, and so does an access no index serves, which Select
// refuses.
func (t *Table) CountPostings(a Access, max int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.latestLocked().countPostings(a, max)
}

// DistinctKeys returns how many distinct non-NULL keys the index on
// column holds, in O(1) — retired rows awaiting GC still hold theirs,
// a hash index its distinct codes; ok is false when no index
// covers the column. The planner reads a join key's fan-out from it.
func (t *Table) DistinctKeys(column string) (n int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.img != nil {
		return t.img.distinctKeys(column)
	}
	idx := t.indexOn(column)
	if idx == nil {
		return 0, false
	}
	return idx.distinct(), true
}

func (t *Table) countPostingsLocked(a Access, max int) int {
	idx, rk := t.indexFor(a)
	n := 0
	switch {
	case idx == nil:
		return len(t.end) - len(t.free)
	case a.Keys != nil:
		for _, k := range a.Keys {
			if n += len(idx.getKey(rk, k)); max > 0 && n > max {
				break
			}
		}
	case rk != nil:
		idx.walkRanks(rk, a.Lo, a.Hi, false, func(ids []int64) bool { n += len(ids); return max <= 0 || n <= max })
	default:
		n = idx.count(a.Lo, a.Hi, max)
	}
	return n
}

// capacity bounds the rows an access on r can emit — its posting count
// — capped by max (≤ 0 is no cap), counting no further than that.
func capacity(r reader, a Access, max int) int {
	if n := r.countPostings(a, max); max <= 0 || n < max {
		return n
	}
	return max
}

// --- delta commits ---

// errNoRow marks a delta that names a row ID not live at the latest
// version (DB.Delete reports it as "no such row", not as a failure).
var errNoRow = errors.New("no such row")

// validateDeltaLocked checks a delta against the current version:
// every delete ID must be visible exactly once and every insert must
// match the schema. Duplicates are found by sorting a copy of the IDs in
// *scratch, working space the caller owns and reuses across deltas (nil
// will do when there are no deletes). Callers hold at least a read lock.
// It is where a frozen table refuses every delta.
func (t *Table) validateDeltaLocked(deleteIDs []int64, inserts []Row, scratch *[]int64) error {
	if t.img != nil {
		return fmt.Errorf("store: table %s is frozen: only a whole-image republish writes it", t.name)
	}
	for _, id := range deleteIDs {
		if _, ok := t.liveSlot(id); !ok {
			return fmt.Errorf("store: table %s delta deletes missing row %d: %w", t.name, id, errNoRow)
		}
	}
	if len(deleteIDs) > 1 {
		ids := append((*scratch)[:0], deleteIDs...)
		*scratch = ids
		slices.Sort(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				return fmt.Errorf("store: table %s delta deletes row %d twice", t.name, ids[i])
			}
		}
	}
	for i, r := range inserts {
		if err := t.schema.CheckRow(r); err != nil {
			return fmt.Errorf("store: table %s delta insert %d: %w", t.name, i, err)
		}
	}
	return nil
}

// applyDeltaLocked is the table's one mutation — live commits and WAL
// replay both land here: it retires deleteIDs and
// inserts the rows as ONE commit version, publishing one CommitEvent. It
// returns copies of the deleted rows, cut from one slab, when the WAL
// will log them (wantDeleted; the event then reads the same copies) and
// nil otherwise, and the ID of the last row inserted (what the one-row
// DB.Insert hands back). A commit hook reads the retired rows in place:
// their slots go to the GC work list, not the free list, so the inserts
// cannot reuse them and their cells hold until maybeGCLocked, after the
// hook. The caller has validated the delta and holds t.mu exclusively;
// with no interleaved writer the apply cannot fail.
func (t *Table) applyDeltaLocked(deleteIDs []int64, inserts []Row, wantDeleted bool) (deleted []Row, last int64) {
	v := t.commit + 1
	var sl *slab
	if wantDeleted && len(deleteIDs) > 0 {
		deleted, sl = make([]Row, 0, len(deleteIDs)), newSlab(t, len(deleteIDs))
	}
	for _, id := range deleteIDs {
		s, _ := t.liveSlot(id)
		if sl != nil {
			deleted = append(deleted, sl.row(s))
		}
		t.retireLocked(s, v)
	}
	last = -1
	t.extendLocked(max(len(inserts)-len(t.free), 0), 0)
	t.inserted = t.inserted[:0]
	for _, r := range inserts {
		last = t.insertLocked(v, r)
		if t.onCommit != nil {
			t.inserted = append(t.inserted, int32(uint32(last)))
		}
	}
	t.commit = v
	if t.onCommit != nil && (len(inserts) > 0 || len(deleteIDs) > 0) {
		t.onCommit(CommitEvent{Table: t.name, Version: v, Inserted: inserts, t: t, deleteIDs: deleteIDs, inserted: t.inserted, deleted: deleted})
	}
	t.maybeGCLocked()
	return deleted, last
}

// applyDeltaByValue applies a replayed batch delta. Row
// IDs are not stable across recovery, so the log names deleted rows by
// value: each resolves to one live row equal to it (equal rows pair off
// one to one, a value with no live match is skipped), and the resolved
// delta goes through applyDeltaLocked like a live commit.
func (t *Table) applyDeltaByValue(deletes []Row, inserts []Row) error {
	for i, r := range inserts {
		if err := t.schema.CheckRow(r); err != nil {
			return fmt.Errorf("store: table %s batch insert %d: %w", t.name, i, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int64, 0, len(deletes))
	taken := make(map[int]struct{}, len(deletes))
	for _, r := range deletes {
		if s, ok := t.findByValueLocked(r, taken); ok {
			taken[s] = struct{}{}
			ids = append(ids, t.idOf(s))
		}
	}
	t.applyDeltaLocked(ids, inserts, false)
	return nil
}

// findByValueLocked locates a slot outside taken whose row, live at the
// latest version, equals r. With an index on the table the search
// compares only the postings under r's value in the indexed column — the
// index with the fewest — instead of every row.
func (t *Table) findByValueLocked(r Row, taken map[int]struct{}) (int, bool) {
	if len(r) != len(t.cols) {
		return 0, false
	}
	match := func(s int) bool {
		if t.end[s] != verMax {
			return false
		}
		if _, dup := taken[s]; dup {
			return false
		}
		for c := range t.cols {
			var v Value
			if t.loadCell(&v, c, s); v.K != r[c].K || !Equal(v, r[c]) {
				return false
			}
		}
		return true
	}
	if len(t.indexes) == 0 {
		for s := range t.end {
			if match(s) {
				return s, true
			}
		}
		return 0, false
	}
	var cand []int64
	for i, idx := range t.indexes {
		if c := idx.get(r[idx.column]); i == 0 || len(c) < len(cand) {
			cand = c
		}
	}
	for _, id := range cand {
		if s := int(uint32(id)); match(s) {
			return s, true
		}
	}
	return 0, false
}

// --- snapshot pins and version GC ---

// pin registers a reference on the current commit version and returns
// a view of it. Versions at or above the minimum pinned version are
// retained until unpinned. A frozen table's view holds its image
// instead, which no republish changes, so nothing is registered.
func (t *Table) pin() *TableView {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.img == nil {
		t.pins[t.commit]++
	}
	return &TableView{t.latestLocked()}
}

// unpin drops one reference on v, garbage-collecting versions that are
// no longer reachable from any pin.
func (t *Table) unpin(v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.pins[v]
	if !ok {
		return
	}
	if n <= 1 {
		delete(t.pins, v)
	} else {
		t.pins[v] = n - 1
	}
	t.maybeGCLocked()
}

// PinnedVersions reports how many distinct commit versions are pinned
// (leak accounting: TestStorageMatchesModel and
// TestAccessUnderConcurrentCommits require 0 at rest).
func (t *Table) PinnedVersions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pins)
}

// DeadVersions reports how many retired rows await GC. With no
// snapshots pinned it settles to zero: every commit and unpin sweeps
// rows retired at or below the pin floor.
func (t *Table) DeadVersions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.dying)
}

// minPinLocked returns the lowest pinned commit version, or the
// current commit when nothing is pinned.
func (t *Table) minPinLocked() int64 {
	min := t.commit
	for v := range t.pins {
		if v < min {
			min = v
		}
	}
	return min
}

// maybeGCLocked sweeps the dying slots when the pin floor has advanced
// since the last sweep. A retired row is removable once end ≤ floor: no
// pinned snapshot and no latest read can see it. Its slot drops its
// index postings, is cleared of string references, moves to the next
// generation and joins the free list.
func (t *Table) maybeGCLocked() {
	if len(t.dying) == 0 {
		return
	}
	floor := t.minPinLocked()
	if floor <= t.gcFloor && len(t.pins) > 0 {
		return
	}
	keep := t.dying[:0]
	for _, s32 := range t.dying {
		s := int(s32)
		if t.end[s] > floor {
			keep = append(keep, s32)
			continue
		}
		for _, idx := range t.indexes {
			if idx.dict != nil {
				idx.dropCode(t.codes[idx.column][s], t.idOf(s))
			} else {
				idx.remove(t.cols[idx.column].stored(s), t.idOf(s))
			}
		}
		t.begin[s], t.end[s] = 0, 0
		t.gen[s]++
		for c := range t.cols {
			switch {
			case t.codes[c] != nil:
				t.codes[c][s] = nullCode
			case t.cols[c].Kind == KindString:
				t.cols[c].Str[s] = ""
			}
		}
		t.free = append(t.free, s32)
	}
	t.dying = keep
	t.gcFloor = floor
}
