package store

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
)

// IndexType selects a secondary index implementation.
type IndexType uint8

const (
	// IndexHash supports equality probes only.
	IndexHash IndexType = iota
	// IndexBTree supports equality, range scans, and ordered
	// iteration.
	IndexBTree
)

func (t IndexType) String() string {
	if t == IndexHash {
		return "hash"
	}
	return "btree"
}

// index is a secondary index over one column. Under MVCC the postings
// cover every value carried by any retained row version, so a pinned
// snapshot can probe the index too; lookups verify candidates against
// the row version visible at the read's commit version.
type index struct {
	column int
	typ    IndexType
	hash   map[uint64][]int64 // IndexHash: value hash → row IDs
	tree   *btree             // IndexBTree
}

// verMax is the end stamp of a live (undeleted) row version.
const verMax = math.MaxInt64

// rowVer is one committed version of a row: visible to reads at commit
// version v when begin ≤ v < end. Live versions have end == verMax;
// deleting stamps end with the deleting commit's version. The Row
// itself is immutable once committed — snapshots share references.
type rowVer struct {
	begin, end int64
	row        Row
}

// visibleIdx returns the index of the version in chain visible at
// commit version v, or -1. Chains are ordered oldest→newest and short
// (bounded by the pinned-snapshot window), so a linear scan from the
// newest end wins.
func visibleIdx(chain []rowVer, v int64) int {
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].begin <= v && v < chain[i].end {
			return i
		}
	}
	return -1
}

// CommitEvent describes one committed mutation batch on one table —
// the delta stream incremental overlay maintenance consumes. Version
// is the table's commit version after the batch; Inserted and Deleted
// hold the affected rows (shared immutable references — consumers must
// not mutate them). Hooks run synchronously inside the commit critical
// section, so events arrive in strict per-table version order.
type CommitEvent struct {
	Table    string
	Version  int64
	Inserted []Row
	Deleted  []Row
}

// Table is a multi-version heap of rows with optional secondary
// indexes. Row IDs are stable int64 handles that survive unrelated
// deletes. Every mutation publishes a new commit version; readers
// either follow the latest version or pin one via DB.PinSnapshot and
// read a frozen, consistent image while writers keep committing.
// Superseded versions are garbage-collected once no pin can see them.
type Table struct {
	name   string
	schema *Schema

	mu      sync.RWMutex
	rows    map[int64][]rowVer
	nextID  int64
	indexes map[string]*index  // keyed by column name
	commit  int64              // last published commit version
	live    int                // rows visible at commit
	dead    int                // superseded versions awaiting GC
	retired map[int64]struct{} // chains holding dead versions
	pins    map[int64]int      // pinned commit version → refcount
	gcFloor int64              // min pin the last GC sweep ran against
	// onCommit, when set, receives one CommitEvent per committed
	// mutation batch, invoked under mu (see CommitEvent).
	onCommit func(CommitEvent)
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{
		name:    name,
		schema:  schema,
		rows:    make(map[int64][]rowVer),
		indexes: make(map[string]*index),
		retired: make(map[int64]struct{}),
		pins:    make(map[int64]int),
	}
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

// emitLocked publishes a commit event; callers hold mu.
func (t *Table) emitLocked(version int64, inserted, deleted []Row) {
	if t.onCommit != nil && (len(inserted) > 0 || len(deleted) > 0) {
		t.onCommit(CommitEvent{Table: t.name, Version: version, Inserted: inserted, Deleted: deleted})
	}
}

// CreateIndex builds a secondary index over the named column,
// backfilling every retained row version. Creating an index that
// already exists with the same type is a no-op.
func (t *Table) CreateIndex(column string, typ IndexType) error {
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("store: table %s has no column %q", t.name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if existing, ok := t.indexes[column]; ok {
		if existing.typ == typ {
			return nil
		}
		return fmt.Errorf("store: column %q already indexed as %v", column, existing.typ)
	}
	idx := &index{column: ci, typ: typ}
	if typ == IndexHash {
		idx.hash = make(map[uint64][]int64)
	} else {
		idx.tree = newBTree()
	}
	for id, chain := range t.rows {
		for vi := range chain {
			if !chainValueBefore(chain, vi, ci, chain[vi].row[ci]) {
				idx.insert(chain[vi].row[ci], id)
			}
		}
	}
	t.indexes[column] = idx
	return nil
}

// chainValueBefore reports whether any version of chain earlier than
// vi carries value v in column ci — the dedup test that keeps index
// postings set-valued per (value, id) pair.
func chainValueBefore(chain []rowVer, vi int, ci int, v Value) bool {
	for i := 0; i < vi; i++ {
		if Equal(chain[i].row[ci], v) {
			return true
		}
	}
	return false
}

// chainHasValue reports whether any version of chain carries value v
// in column ci.
func chainHasValue(chain []rowVer, ci int, v Value) bool {
	return chainValueBefore(chain, len(chain), ci, v)
}

// IndexSpec describes one secondary index for introspection.
type IndexSpec struct {
	Column string
	Type   IndexType
}

// Indexes lists the table's secondary indexes sorted by column name,
// so callers cloning a table's physical layout (the shard partitioner
// does) can recreate them on the copy.
func (t *Table) Indexes() []IndexSpec {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexSpec, 0, len(t.indexes))
	for col, ix := range t.indexes {
		out = append(out, IndexSpec{Column: col, Type: ix.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Column < out[j].Column })
	return out
}

// HasIndex reports whether column has an index and of which type.
func (t *Table) HasIndex(column string) (IndexType, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[column]
	if !ok {
		return 0, false
	}
	return idx.typ, true
}

func (ix *index) insert(v Value, id int64) {
	if ix.typ == IndexHash {
		h := v.Hash()
		ix.hash[h] = append(ix.hash[h], id)
	} else {
		ix.tree.Insert(v, id)
	}
}

func (ix *index) remove(v Value, id int64) {
	if ix.typ == IndexHash {
		h := v.Hash()
		post := ix.hash[h]
		for i, pid := range post {
			if pid == id {
				post[i] = post[len(post)-1]
				ix.hash[h] = post[:len(post)-1]
				if len(ix.hash[h]) == 0 {
					delete(ix.hash, h)
				}
				return
			}
		}
	} else {
		ix.tree.Delete(v, id)
	}
}

// addPostingsLocked indexes a newly appended version: one posting per
// index unless an earlier version of the chain already carries the
// same value (the posting then already covers the new version).
func (t *Table) addPostingsLocked(id int64, chain []rowVer, vi int) {
	for _, idx := range t.indexes {
		v := chain[vi].row[idx.column]
		if !chainValueBefore(chain, vi, idx.column, v) {
			idx.insert(v, id)
		}
	}
}

// Insert validates and appends a row, returning its row ID. The write
// commits immediately as its own version.
func (t *Table) Insert(r Row) (int64, error) {
	if err := t.schema.CheckRow(r); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.commit + 1
	id := t.nextID
	t.nextID++
	row := r.Clone()
	chain := []rowVer{{begin: v, end: verMax, row: row}}
	t.rows[id] = chain
	t.addPostingsLocked(id, chain, 0)
	t.commit = v
	t.live++
	t.emitLocked(v, []Row{row}, nil)
	t.maybeGCLocked()
	return id, nil
}

// Get returns the row with the given ID at the latest version.
func (t *Table) Get(id int64) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := visibleIdx(t.rows[id], t.commit)
	if i < 0 {
		return nil, false
	}
	return t.rows[id][i].row.Clone(), true
}

// Delete removes the row with the given ID: its current version is
// end-stamped with the new commit version and retained until no pinned
// snapshot can see it.
func (t *Table) Delete(id int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.commit + 1
	chain := t.rows[id]
	i := visibleIdx(chain, t.commit)
	if i < 0 {
		return false
	}
	chain[i].end = v
	t.commit = v
	t.live--
	t.dead++
	t.retired[id] = struct{}{}
	t.emitLocked(v, nil, []Row{chain[i].row})
	t.maybeGCLocked()
	return true
}

// Update replaces the row with the given ID: the old version is
// end-stamped and a new version begins at the new commit version.
func (t *Table) Update(id int64, r Row) error {
	if err := t.schema.CheckRow(r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.commit + 1
	chain := t.rows[id]
	i := visibleIdx(chain, t.commit)
	if i < 0 {
		return fmt.Errorf("store: table %s has no row %d", t.name, id)
	}
	old := chain[i].row
	chain[i].end = v
	chain = append(chain, rowVer{begin: v, end: verMax, row: r.Clone()})
	t.rows[id] = chain
	t.addPostingsLocked(id, chain, len(chain)-1)
	t.dead++
	t.retired[id] = struct{}{}
	t.emitLocked(v, []Row{chain[len(chain)-1].row}, []Row{old})
	t.commit = v
	t.maybeGCLocked()
	return nil
}

// Scan calls fn for every latest-version row in unspecified order
// until fn returns false. The row passed to fn must not be retained or
// mutated.
func (t *Table) Scan(fn func(id int64, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.scanLocked(t.commit, fn)
}

// ScanAt is Scan at a pinned commit version.
func (t *Table) ScanAt(v int64, fn func(id int64, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.scanLocked(v, fn)
}

func (t *Table) scanLocked(v int64, fn func(id int64, r Row) bool) {
	for id, chain := range t.rows {
		i := visibleIdx(chain, v)
		if i < 0 {
			continue
		}
		if !fn(id, chain[i].row) {
			return
		}
	}
}

// Snapshot returns references to every row visible at the latest
// version, in unspecified order. The references are safe for shared
// concurrent reads even while writers run: committed row versions are
// immutable (mutations append new versions, GC only drops references),
// so a row reachable from a snapshot never changes. Callers must not
// mutate the returned rows; clone before modifying (the parallel
// executor clones on output).
func (t *Table) Snapshot() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.snapshotLocked(t.commit)
}

// SnapshotAt is Snapshot at a pinned commit version.
func (t *Table) SnapshotAt(v int64) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.snapshotLocked(v)
}

func (t *Table) snapshotLocked(v int64) []Row {
	out := make([]Row, 0, t.live)
	for _, chain := range t.rows {
		if i := visibleIdx(chain, v); i >= 0 {
			out = append(out, chain[i].row)
		}
	}
	return out
}

// Access describes one read of a table: which rows, in what order,
// which columns, and how many. It is the one way the query layer
// reaches stored rows — every scan, index probe, ordered walk and
// key union is an Access handed to Gather or GatherRows, which resolve
// it in a single pass under one read lock.
type Access struct {
	// Column names the index that drives the read; "" reads every
	// visible row in storage order.
	Column string
	// Keys, when non-nil, are equality probes on Column: rows come out
	// grouped by key in list order. Keys must be distinct.
	Keys []Value
	// Lo and Hi bound a range walk over Column (inclusive; nil is open),
	// used when Keys is nil. Rows come out in key order, descending when
	// Desc is set. NULL keys never qualify.
	Lo, Hi *Value
	Desc   bool
	// Cols lists the columns to emit, in output order; nil emits all.
	Cols []int
	// Limit stops the read after that many emitted rows; 0 is no limit.
	Limit int
	// Accept, when set, is shown every visible row the walk reaches (the
	// stored row itself: read-only, not to be retained) and decides
	// whether it is emitted. It runs under the table's read lock, so it
	// must not touch the store. An error aborts the read.
	Accept func(Row) (bool, error)
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
// caller's context (poll is nil for the context-free Lookup calls).
const pollEvery = 1024

// equalCandidates returns the raw index postings for v — unverified
// candidate IDs the caller filters by version visibility.
func equalCandidates(ix *index, v Value) []int64 {
	if ix.typ == IndexHash {
		return ix.hash[v.Hash()]
	}
	return ix.tree.Get(v)
}

func inRange(v Value, lo, hi *Value) bool {
	if v.IsNull() {
		return false
	}
	if lo != nil && Compare(v, *lo) < 0 {
		return false
	}
	if hi != nil && Compare(v, *hi) > 0 {
		return false
	}
	return true
}

// indexFor returns the index that can serve the access, or nil: any
// index answers key probes, only a B+-tree walks a range.
func (t *Table) indexFor(a Access) *index {
	idx := t.indexes[a.Column]
	if idx != nil && a.Keys == nil && idx.typ != IndexBTree {
		return nil
	}
	return idx
}

// walkLocked calls fn with every row the access selects at commit
// version ver, in access order, until fn returns false. Index postings
// cover every value any retained version carries, so a posting under
// key k is emitted only when the row version visible at ver carries k:
// postings are set-valued per (value, id), hence each visible row
// surfaces exactly once, under its own key, with no dedup state. A
// column without a usable index (none, or a hash index asked for a
// range) is served by filtering a full pass, in storage order.
func (t *Table) walkLocked(poll func() error, ver int64, a Access, fn func(id int64, r Row) bool) error {
	if a.Column == "" {
		return t.passLocked(poll, ver, nil, fn)
	}
	ci := t.schema.ColumnIndex(a.Column)
	if ci < 0 {
		return fmt.Errorf("store: table %s has no column %q", t.name, a.Column)
	}
	idx := t.indexFor(a)
	if idx == nil {
		return t.passLocked(poll, ver, func(r Row) bool {
			for _, k := range a.Keys {
				if Equal(r[ci], k) {
					return true
				}
			}
			return a.Keys == nil && inRange(r[ci], a.Lo, a.Hi)
		}, fn)
	}
	var err error
	visited := 0
	postings := func(k Value, ids []int64) bool {
		for _, id := range ids {
			if visited++; poll != nil && visited%pollEvery == 0 {
				if err = poll(); err != nil {
					return false
				}
			}
			chain := t.rows[id]
			if i := visibleIdx(chain, ver); i >= 0 && Equal(chain[i].row[ci], k) && !fn(id, chain[i].row) {
				return false
			}
		}
		return true
	}
	if a.Keys != nil {
		for _, k := range a.Keys {
			if !postings(k, equalCandidates(idx, k)) {
				break
			}
		}
		return err
	}
	idx.tree.walk(a.Lo, a.Hi, a.Desc, func(k Value, ids []int64) bool {
		return k.IsNull() || postings(k, ids)
	})
	return err
}

// passLocked is the index-free walk: every visible row match accepts
// (nil accepts all), in storage order.
func (t *Table) passLocked(poll func() error, ver int64, match func(Row) bool, fn func(id int64, r Row) bool) error {
	visited := 0
	for id, chain := range t.rows {
		if visited++; poll != nil && visited%pollEvery == 0 {
			if err := poll(); err != nil {
				return err
			}
		}
		if i := visibleIdx(chain, ver); i >= 0 && (match == nil || match(chain[i].row)) && !fn(id, chain[i].row) {
			return nil
		}
	}
	return nil
}

// readLocked runs the access at ver (negative reads the latest commit),
// applying Accept and Limit, and hands each emitted row to sink. It
// returns how many visible rows the walk examined — emitted or not.
func (t *Table) readLocked(poll func() error, ver int64, a Access, sink func(id int64, r Row)) (examined int, err error) {
	if ver < 0 {
		ver = t.commit
	}
	emitted := 0
	werr := t.walkLocked(poll, ver, a, func(id int64, r Row) bool {
		examined++
		if a.Accept != nil {
			ok, aerr := a.Accept(r)
			if aerr != nil {
				err = aerr
				return false
			}
			if !ok {
				return true
			}
		}
		sink(id, r)
		emitted++
		return a.Limit <= 0 || emitted < a.Limit
	})
	if err == nil {
		err = werr
	}
	return examined, err
}

// CountPostings returns how many index postings the access would visit
// — an upper bound on the rows it can emit, exact but for versions
// awaiting GC — giving up once the count passes max (≤ 0 counts them
// all). The planner sizes an index path against a full scan with it,
// and Gather sizes its batch. A full scan, or a column without a usable
// index, counts every stored row.
func (t *Table) CountPostings(a Access, max int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.countPostingsLocked(a, max)
}

func (t *Table) countPostingsLocked(a Access, max int) int {
	idx := t.indexFor(a)
	if idx == nil {
		return len(t.rows)
	}
	n := 0
	if a.Keys != nil {
		for _, k := range a.Keys {
			if n += len(equalCandidates(idx, k)); max > 0 && n > max {
				break
			}
		}
		return n
	}
	idx.tree.walk(a.Lo, a.Hi, a.Desc, func(_ Value, ids []int64) bool {
		n += len(ids)
		return max <= 0 || n <= max
	})
	return n
}

// capacityLocked sizes the output of an access: the posting count,
// capped by Limit, and — when Accept may reject most of it — by one
// batch, grown on demand.
func (t *Table) capacityLocked(a Access) int {
	max := a.Limit
	if a.Accept != nil && (max <= 0 || max > pollEvery) {
		max = pollEvery
	}
	if n := t.countPostingsLocked(a, max); max <= 0 || n < max {
		return n
	}
	return max
}

// GatherRows runs the access at commit version ver (negative reads the
// latest) and returns copies of the selected rows narrowed to a.Cols,
// plus the number of visible rows examined.
func (t *Table) GatherRows(ctx context.Context, ver int64, a Access) ([]Row, int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cols := a.outputCols(t.schema)
	out := make([]Row, 0, t.capacityLocked(a))
	examined, err := t.readLocked(ctx.Err, ver, a, func(_ int64, r Row) {
		pr := make(Row, len(cols))
		for i, c := range cols {
			pr[i] = r[c]
		}
		out = append(out, pr)
	})
	return out, examined, err
}

// lookup collects the IDs an access selects at the latest version.
func (t *Table) lookup(a Access) ([]int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var ids []int64
	_, err := t.readLocked(nil, -1, a, func(id int64, _ Row) { ids = append(ids, id) })
	return ids, err
}

// LookupEqual returns the IDs of rows whose column equals v at the
// latest version, using an index when one exists and falling back to a
// scan.
func (t *Table) LookupEqual(column string, v Value) ([]int64, error) {
	return t.lookup(Access{Column: column, Keys: []Value{v}})
}

// LookupRange returns the IDs of rows with lo ≤ column ≤ hi (nil
// bounds are open) at the latest version, in key order when a B+-tree
// index serves it; otherwise the table is scanned.
func (t *Table) LookupRange(column string, lo, hi *Value) ([]int64, error) {
	return t.lookup(Access{Column: column, Lo: lo, Hi: hi})
}

// Rows returns copies of the rows with the given IDs at the latest
// version, skipping IDs that no longer exist.
func (t *Table) Rows(ids []int64) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Row, 0, len(ids))
	for _, id := range ids {
		if i := visibleIdx(t.rows[id], t.commit); i >= 0 {
			out = append(out, t.rows[id][i].row.Clone())
		}
	}
	return out
}

// --- delta commits ---

// validateDeltaLocked checks a delta against the current version:
// every delete ID must be visible exactly once and every insert must
// match the schema. Callers hold at least a read lock.
func (t *Table) validateDeltaLocked(deleteIDs []int64, inserts []Row) error {
	seen := make(map[int64]struct{}, len(deleteIDs))
	for _, id := range deleteIDs {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("store: table %s delta deletes row %d twice", t.name, id)
		}
		seen[id] = struct{}{}
		if visibleIdx(t.rows[id], t.commit) < 0 {
			return fmt.Errorf("store: table %s delta deletes missing row %d", t.name, id)
		}
	}
	for i, r := range inserts {
		if err := t.schema.CheckRow(r); err != nil {
			return fmt.Errorf("store: table %s delta insert %d: %w", t.name, i, err)
		}
	}
	return nil
}

// applyDeltaLocked applies deletes+inserts as ONE commit version and
// returns the deleted rows' values (for WAL logging). The caller has
// validated the delta and holds t.mu exclusively; with no interleaved
// writer the apply cannot fail.
func (t *Table) applyDeltaLocked(deleteIDs []int64, inserts []Row) (deleted []Row) {
	v := t.commit + 1
	deleted = make([]Row, 0, len(deleteIDs))
	for _, id := range deleteIDs {
		chain := t.rows[id]
		i := visibleIdx(chain, t.commit)
		chain[i].end = v
		deleted = append(deleted, chain[i].row)
		t.live--
		t.dead++
		t.retired[id] = struct{}{}
	}
	inserted := make([]Row, 0, len(inserts))
	for _, r := range inserts {
		id := t.nextID
		t.nextID++
		row := r.Clone()
		chain := []rowVer{{begin: v, end: verMax, row: row}}
		t.rows[id] = chain
		t.addPostingsLocked(id, chain, 0)
		t.live++
		inserted = append(inserted, row)
	}
	t.commit = v
	t.emitLocked(v, inserted, deleted)
	t.maybeGCLocked()
	return deleted
}

// applyDeltaByValue applies a replayed/replicated batch delta: deletes
// are matched by row value (row IDs are not stable across recovery),
// and the whole delta commits as one version. Missing delete matches
// are skipped, mirroring single-record delete replay.
func (t *Table) applyDeltaByValue(deletes []Row, inserts []Row) error {
	for i, r := range inserts {
		if err := t.schema.CheckRow(r); err != nil {
			return fmt.Errorf("store: table %s batch insert %d: %w", t.name, i, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.commit + 1
	var deleted []Row
	for _, r := range deletes {
		id, i, ok := t.findByValueLocked(r)
		if !ok {
			continue
		}
		chain := t.rows[id]
		chain[i].end = v
		deleted = append(deleted, chain[i].row)
		t.live--
		t.dead++
		t.retired[id] = struct{}{}
	}
	var inserted []Row
	for _, r := range inserts {
		id := t.nextID
		t.nextID++
		row := r.Clone()
		chain := []rowVer{{begin: v, end: verMax, row: row}}
		t.rows[id] = chain
		t.addPostingsLocked(id, chain, 0)
		t.live++
		inserted = append(inserted, row)
	}
	t.commit = v
	t.emitLocked(v, inserted, deleted)
	t.maybeGCLocked()
	return nil
}

// findByValueLocked locates a row whose visible version equals r.
func (t *Table) findByValueLocked(r Row) (id int64, vi int, ok bool) {
	for id, chain := range t.rows {
		i := visibleIdx(chain, t.commit)
		if i < 0 {
			continue
		}
		if rowsEqual(chain[i].row, r) {
			return id, i, true
		}
	}
	return 0, 0, false
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K || !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// deleteByValue removes one row equal to r (WAL replay of single
// delete records).
func (t *Table) deleteByValue(r Row) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, i, ok := t.findByValueLocked(r)
	if !ok {
		return false
	}
	v := t.commit + 1
	chain := t.rows[id]
	chain[i].end = v
	t.commit = v
	t.live--
	t.dead++
	t.retired[id] = struct{}{}
	t.emitLocked(v, nil, []Row{chain[i].row})
	t.maybeGCLocked()
	return true
}

// --- snapshot pins and version GC ---

// pin registers a reference on the current commit version and returns
// it. Versions at or above the minimum pinned version are retained
// until unpinned.
func (t *Table) pin() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pins[t.commit]++
	return t.commit
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
// (leak accounting for the T14 refcount gate).
func (t *Table) PinnedVersions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pins)
}

// DeadVersions reports how many superseded row versions await GC. With
// no snapshots pinned it settles to zero: every commit and unpin
// sweeps versions below the pin floor.
func (t *Table) DeadVersions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dead
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

// maybeGCLocked sweeps retired chains when the pin floor has advanced
// since the last sweep. A dead version is removable once end ≤ floor:
// no pinned snapshot and no latest read can see it. Removing a version
// drops its index postings unless another retained version of the same
// chain carries the same value.
func (t *Table) maybeGCLocked() {
	if t.dead == 0 {
		return
	}
	floor := t.minPinLocked()
	if floor <= t.gcFloor && len(t.pins) > 0 {
		return
	}
	for id := range t.retired {
		chain := t.rows[id]
		kept := chain[:0]
		var dropped []rowVer
		for _, ver := range chain {
			if ver.end <= floor {
				dropped = append(dropped, ver)
			} else {
				kept = append(kept, ver)
			}
		}
		if len(dropped) == 0 {
			continue
		}
		t.dead -= len(dropped)
		for _, ver := range dropped {
			for _, idx := range t.indexes {
				v := ver.row[idx.column]
				if !chainHasValue(kept, idx.column, v) {
					idx.remove(v, id)
				}
			}
		}
		if len(kept) == 0 {
			delete(t.rows, id)
			delete(t.retired, id)
			continue
		}
		t.rows[id] = kept
		// Still-dead survivors keep the chain on the retired list.
		stillDead := false
		for _, ver := range kept {
			if ver.end != verMax {
				stillDead = true
				break
			}
		}
		if !stillDead {
			delete(t.retired, id)
		}
	}
	t.gcFloor = floor
}
