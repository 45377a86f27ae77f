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
// arrive in strict per-table version order.
type CommitEvent struct {
	Table    string
	Version  int64
	Inserted []Row

	// t is set while the retired rows are read in place, from the slots
	// deleteIDs name; otherwise deleted holds copies of them.
	t         *Table
	deleteIDs []int64
	deleted   []Row
}

// NumDeleted returns how many rows the batch retired.
func (ev CommitEvent) NumDeleted() int {
	if ev.t == nil {
		return len(ev.deleted)
	}
	return len(ev.deleteIDs)
}

// DeletedCell returns column col of the i-th retired row.
func (ev CommitEvent) DeletedCell(i, col int) Value {
	if ev.t == nil {
		return ev.deleted[i][col]
	}
	return ev.t.cols[col].stored(int(uint32(ev.deleteIDs[i])))
}

// Detach returns the event with its retired rows copied out of storage,
// readable after the hook call returns. It must itself be called during
// the call.
func (ev CommitEvent) Detach() CommitEvent {
	if ev.t == nil {
		return ev
	}
	sl, rows := newSlab(ev.t.cols, len(ev.deleteIDs)), make([]Row, len(ev.deleteIDs))
	for i, id := range ev.deleteIDs {
		rows[i] = sl.row(int(uint32(id)))
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

	mu      sync.RWMutex
	cols    []Col   // one vector per schema column, indexed by slot; Null is nil until the column holds a NULL
	begin   []int64 // per slot: commit version that wrote the row
	end     []int64 // per slot: verMax while live, the deleting version once dead, 0 when free
	gen     []uint32
	free    []int32
	dying   []int32       // slots holding a retired row: the GC work list
	indexes []*index      // secondary indexes, one a column at most, ordered by column name
	ranks   []*index      // rank indexes, one a column at most (CreateRankIndex)
	commit  int64         // last published commit version
	live    int           // rows visible at commit
	pins    map[int64]int // pinned commit version → refcount
	gcFloor int64         // min pin the last GC sweep ran against
	// onCommit, when set, receives one CommitEvent per committed
	// mutation batch, invoked under mu (see CommitEvent).
	onCommit func(CommitEvent)
	// img is set on a frozen table (see DB.PublishFrozen): its current
	// image, which a republish replaces whole. Such a table has no slot
	// bookkeeping, pins or indexes; live and commit mirror the image.
	img *frozenImage
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	t := &Table{
		name:   name,
		schema: schema,
		cols:   make([]Col, len(schema.Columns)),
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
		switch col.Kind {
		case KindInt, KindBool:
			col.Int = extend(col.Int, n, add)
		case KindFloat:
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
// appended (no vector is ever cut, so spare capacity is zero). Room past
// double the capacity is allocated exactly, not rounded to a size class;
// less grows by append's rule, so one-row commits stay amortised.
func extend[E any](s []E, n, add int) []E {
	if len(s)+n > 2*cap(s) {
		s = append(make([]E, 0, len(s)+n), s...)
	} else {
		s = slices.Grow(s, n)
	}
	return s[:len(s)+add]
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
		switch col.Kind {
		case KindInt, KindBool:
			col.Int[s] = cell.I
		case KindFloat:
			col.Float[s] = cell.F
		default:
			col.Str[s] = cell.S
		}
	}
	t.begin[s], t.end[s] = v, verMax
	return t.idOf(s)
}

// insertLocked stores r in a fresh slot as of version v and indexes it.
func (t *Table) insertLocked(v int64, r Row) int64 {
	id := t.putLocked(t.allocSlot(), v, r)
	for _, idx := range t.indexes {
		idx.insert(r[idx.column], id)
	}
	for _, idx := range t.ranks {
		idx.insert(r[idx.column], id)
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

// stored reconstructs cell i of a storage vector.
func (c *Col) stored(i int) (v Value) {
	c.loadCell(&v, i)
	return v
}

// visible reports whether slot s holds a row visible at commit version
// ver.
func (t *Table) visible(s int, ver int64) bool { return t.begin[s] <= ver && ver < t.end[s] }

// loadRow refreshes the schema-wide row dst with slot s's cells in the
// vectors cols. Each dst cell must be zero or an earlier load of the
// same column, so only its kind and payload are written.
func loadRow(cols []Col, dst Row, s int) {
	for c := range cols {
		cols[c].loadCell(&dst[c], s)
	}
}

// loadCell writes cell i of a vector over *v, which must be zero or an
// earlier cell of the same vector. It reads a stored table's storage and
// batches, never a computed column: a frozen image is read through
// Selection.Fill (scanRows).
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

// slab cuts rows materialised from the storage vectors cols out of
// shared allocations: n rows in the first, further chunks only if the
// caller undercounted.
type slab struct {
	cols  []Col
	cells []Value
}

func newSlab(cols []Col, n int) *slab {
	return &slab{cols: cols, cells: make([]Value, n*len(cols))}
}

// row materialises the row in slot s.
func (sl *slab) row(s int) Row {
	w := len(sl.cols)
	if len(sl.cells) < w {
		sl.cells = make([]Value, 256*w)
	}
	r := sl.cells[:w:w]
	sl.cells = sl.cells[w:]
	loadRow(sl.cols, r, s)
	return r
}

// CreateIndex builds a secondary index over the named column and
// backfills it (see backfill). Creating an index that already exists
// with the same type is a no-op.
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
	if existing := t.indexOn(t.indexes, column); existing != nil {
		if existing.typ == typ {
			return nil
		}
		return fmt.Errorf("store: column %q already indexed as %v", column, existing.typ)
	}
	idx := newIndex(ci, typ, t.cols[ci].Kind)
	t.backfill(idx)
	t.indexes = append(t.indexes, idx)
	slices.SortFunc(t.indexes, func(a, b *index) int {
		return strings.Compare(t.schema.Columns[a.column].Name, t.schema.Columns[b.column].Name)
	})
	return nil
}

// indexOn returns the index in list (t.indexes or t.ranks) on column,
// or nil. A table has a few indexes at most, so a scan is the lookup.
func (t *Table) indexOn(list []*index, column string) *index {
	for _, ix := range list {
		if t.schema.Columns[ix.column].Name == column {
			return ix
		}
	}
	return nil
}

// CreateRankIndex builds a rank index over the STRING column: it walks
// the rows whose rank(cell) lies in a range, in rank order, for an
// Access with Rank set. rank maps a cell to [0, ranks); a NULL cell, or
// one it does not map, has no posting. It is backfilled as CreateIndex's
// are, and commits and GC keep it like any other. It lives in this
// process only: no checkpoint or log records it, and Indexes omits it.
// source, comparable, names what rank derives from: RankedBy reports
// it, and an Access reads the index only by naming it. A rank index
// from the same source is kept, one from another replaced.
func (t *Table) CreateRankIndex(column string, ranks int, rank func(string) (int64, bool), source any) error {
	ci := t.schema.ColumnIndex(column)
	if ci < 0 || t.schema.Columns[ci].Kind != KindString {
		return fmt.Errorf("store: table %s has no STRING column %q to rank", t.name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.img != nil {
		return fmt.Errorf("store: table %s is frozen and takes no index", t.name)
	}
	if old := t.indexOn(t.ranks, column); old != nil && old.source == source {
		return nil
	}
	ix := &index{column: ci, typ: IndexBTree, kind: KindInt, rank: rank, source: source, post: postings{lists: make([][]int64, ranks)}}
	t.backfill(ix)
	t.ranks = append(slices.DeleteFunc(t.ranks, func(old *index) bool { return old.column == ci }), ix)
	return nil
}

// backfill files every stored row into the empty index ix, retired ones
// awaiting GC included (a pinned snapshot may still read them), in slot
// order, a B+-tree's in key order so that every leaf fills. The rows of
// each fixed list (a rank, the NULL list) are counted first, so that
// each is allocated once at its length; a key's list grows as commits
// grow it. While the rows are filed, a hash table has room for every
// row and the positions room for every slot; then the table is fitted
// to its distinct hashes, and positions no key needed are dropped.
func (t *Table) backfill(ix *index) {
	col := &t.cols[ix.column]
	slots := make([]int32, 0, len(t.end)-len(t.free))
	sizes := make([]int, len(ix.post.lists))
	for s := range t.end {
		if t.end[s] == 0 {
			continue
		}
		slots = append(slots, int32(s))
		if len(sizes) == 0 {
			continue
		}
		if m, ok := ix.fixedList(col.stored(s)); ok {
			sizes[m]++
		}
	}
	for m, n := range sizes {
		ix.post.lists[m] = make([]int64, 0, n)
	}
	if ix.typ == IndexBTree && ix.rank == nil {
		slices.SortFunc(slots, func(a, b int32) int { return Compare(col.stored(int(a)), col.stored(int(b))) })
	}
	if ix.hash != nil {
		ix.hash.fit(len(slots))
	}
	ix.post.pos = make([]int32, 0, len(t.end))
	for _, s := range slots {
		ix.insert(col.stored(int(s)), t.idOf(int(s)))
	}
	if len(ix.post.pos) == 0 {
		ix.post.pos = nil
	}
	if ix.hash != nil {
		ix.hash.fit(ix.hash.used)
	}
}

// RankedBy reports whether column has a rank index derived from source.
func (t *Table) RankedBy(column string, source any) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.indexOn(t.ranks, column)
	return ix != nil && ix.source == source
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
	idx := t.indexOn(t.indexes, column)
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
		_ = r.walk(nil, Access{}, func(s int) bool { // a pass without poll cannot fail
			loadRow(cols, scratch, s)
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
			if loadRow(chunk.Cols, scratch, k); !fn(int64(lo+k), scratch) {
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
	// Rank, when set, reads Column's rank index (CreateRankIndex)
	// instead of its own, provided Rank is the source it was built from:
	// Keys, Lo and Hi are then ranks.
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
// index answers key probes, only a B+-tree walks a range.
func (t *Table) indexFor(a Access) *index {
	if a.Rank != nil {
		if ix := t.indexOn(t.ranks, a.Column); ix != nil && ix.source == a.Rank {
			return ix
		}
		return nil
	}
	idx := t.indexOn(t.indexes, a.Column)
	if idx != nil && a.Keys == nil && idx.typ != IndexBTree {
		return nil
	}
	return idx
}

// unserved is the error for an access on a column no index serves: an
// unknown column, one without an index, or a hash index asked for a
// range.
func unserved(table string, schema *Schema, a Access) error {
	if schema.ColumnIndex(a.Column) < 0 {
		return fmt.Errorf("store: table %s has no column %q", table, a.Column)
	}
	if a.Rank != nil {
		return fmt.Errorf("store: table %s has no rank index on column %s from %v", table, a.Column, a.Rank)
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
	idx := t.indexFor(a)
	if idx == nil {
		return unserved(t.name, t.schema, a)
	}
	ci := idx.column
	var err error
	visited := 0
	// check, when set, is the probed key, to be compared with each
	// candidate's stored cell (hash postings are shared by colliding
	// values; a tree's are exact).
	postings := func(ids []int64, check *Value) bool {
		for _, id := range ids {
			if visited++; poll != nil && visited%pollEvery == 0 {
				if err = poll(); err != nil {
					return false
				}
			}
			s := int(uint32(id))
			if t.visible(s, ver) && (check == nil || Equal(t.cols[ci].stored(s), *check)) && !fn(s) {
				return false
			}
		}
		return true
	}
	if a.Keys != nil {
		for i := range a.Keys {
			ids, exact := idx.get(a.Keys[i])
			check := &a.Keys[i]
			if exact {
				check = nil
			}
			if !postings(ids, check) {
				break
			}
		}
		return err
	}
	idx.walk(a.Lo, a.Hi, a.Desc, func(ids []int64) bool { return postings(ids, nil) })
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
// and a hash index counts distinct hashes; ok is false when no index
// covers the column. The planner reads a join key's fan-out from it.
func (t *Table) DistinctKeys(column string) (n int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.img != nil {
		return t.img.distinctKeys(column)
	}
	idx := t.indexOn(t.indexes, column)
	if idx == nil {
		return 0, false
	}
	return idx.distinct(), true
}

func (t *Table) countPostingsLocked(a Access, max int) int {
	idx := t.indexFor(a)
	if idx == nil {
		return len(t.end) - len(t.free)
	}
	n := 0
	if a.Keys != nil {
		for _, k := range a.Keys {
			ids, _ := idx.get(k)
			if n += len(ids); max > 0 && n > max {
				break
			}
		}
		return n
	}
	return idx.count(a.Lo, a.Hi, max)
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
		deleted, sl = make([]Row, 0, len(deleteIDs)), newSlab(t.cols, len(deleteIDs))
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
	for _, r := range inserts {
		last = t.insertLocked(v, r)
	}
	t.commit = v
	if t.onCommit != nil && (len(inserts) > 0 || len(deleteIDs) > 0) {
		ev := CommitEvent{Table: t.name, Version: v, Inserted: inserts, deleted: deleted}
		if deleted == nil {
			ev.t, ev.deleteIDs = t, deleteIDs
		}
		t.onCommit(ev)
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
			if v := t.cols[c].stored(s); v.K != r[c].K || !Equal(v, r[c]) {
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
		if c, _ := idx.get(r[idx.column]); i == 0 || len(c) < len(cand) {
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
			idx.remove(t.cols[idx.column].stored(s), t.idOf(s))
		}
		for _, idx := range t.ranks {
			idx.remove(t.cols[idx.column].stored(s), t.idOf(s))
		}
		t.begin[s], t.end[s] = 0, 0
		t.gen[s]++
		for c := range t.cols {
			if t.cols[c].Kind == KindString {
				t.cols[c].Str[s] = ""
			}
		}
		t.free = append(t.free, s32)
	}
	t.dying = keep
	t.gcFloor = floor
}
