package store

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// SnapshotHandle pins a consistent point-in-time image of every table
// in the database. While held, readers going through the handle's
// TableViews see exactly the commit versions current at pin time —
// concurrent writers keep committing without blocking them, and
// CommitDeltas publishes multi-table batches all-or-nothing with
// respect to the pin. Release drops the pins; superseded row versions
// are garbage-collected once no handle can reach them. Release is
// idempotent and must be called on every acquired handle (the
// snapcheck lint rule enforces a defer or an explicit ownership
// transfer on all paths).
type SnapshotHandle struct {
	db       *DB
	views    map[string]*TableView
	released atomic.Bool
}

// PinSnapshot pins the current commit version of every table and
// returns the handle. The pin runs under the database read lock, so it
// is atomic with respect to CommitDeltas: a concurrent multi-table
// publish is either fully visible or fully invisible to the snapshot.
func (db *DB) PinSnapshot() *SnapshotHandle {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := &SnapshotHandle{db: db, views: make(map[string]*TableView, len(db.tables))}
	for name, t := range db.tables {
		s.views[name] = t.pin()
	}
	db.snapCount.Add(1)
	return s
}

// ActiveSnapshots reports how many pinned snapshots are outstanding —
// zero after every acquirer has released (the leak check of
// core.TestConcurrentQueriesDuringResync).
func (db *DB) ActiveSnapshots() int64 {
	return db.snapCount.Load()
}

// DeadVersions sums superseded row versions awaiting GC across all
// tables. With no snapshots pinned it settles to zero.
func (db *DB) DeadVersions() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += t.DeadVersions()
	}
	return n
}

// PinnedVersions sums distinct pinned commit versions across all
// tables.
func (db *DB) PinnedVersions() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += t.PinnedVersions()
	}
	return n
}

// Release unpins every table version the handle holds. Idempotent.
func (s *SnapshotHandle) Release() {
	if s == nil || s.released.Swap(true) {
		return
	}
	for _, tv := range s.views {
		tv.t.unpin(tv.ver)
	}
	s.db.snapCount.Add(-1)
}

// View returns the pinned view of the named table. Tables created
// after the pin are not part of the snapshot.
func (s *SnapshotHandle) View(name string) (*TableView, error) {
	tv, ok := s.views[name]
	if !ok {
		return nil, fmt.Errorf("store: no table %q in snapshot", name)
	}
	return tv, nil
}

// Dict returns the dictionary the snapshot's coded columns decode
// through: the DB's, whose codes never change meaning.
func (s *SnapshotHandle) Dict() *Dict { return s.db.dict }

// Version returns the pinned commit version of the named table.
func (s *SnapshotHandle) Version(name string) (int64, bool) {
	tv, ok := s.views[name]
	if !ok {
		return 0, false
	}
	return tv.ver, true
}

// VersionKey renders the snapshot's per-table versions as a canonical
// sorted string — the statement-cache key component that replaces the
// summed dbVersion, so a write to one table no longer invalidates
// cached plans that never read it.
func VersionKey(versions map[string]int64) string {
	names := make([]string, 0, len(versions))
	for n := range versions {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d;", n, versions[n])
	}
	return b.String()
}

// TableView reads one table at the commit version its SnapshotHandle
// pinned; a view exists only inside a handle, so every read through one
// is pinned.
type TableView struct {
	// reader is the pinned image: the table at the pinned version, or
	// the frozen image current at the pin.
	reader
}

// Table exposes the underlying table for schema and index
// introspection (planning never reads rows through it).
func (tv *TableView) Table() *Table { return tv.t }

// Version returns the pinned commit version.
func (tv *TableView) Version() int64 { return tv.ver }

// Scan calls fn for every visible row, in storage order, until fn
// returns false; the row is a scratch copy overwritten by the next call.
// Statements read through Select; Scan serves core's overlay loader and
// the repository benchmark.
func (tv *TableView) Scan(fn func(id int64, r Row) bool) {
	tv.t.mu.RLock()
	defer tv.t.mu.RUnlock()
	scanRows(tv.reader, fn)
}
