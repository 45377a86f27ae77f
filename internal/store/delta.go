package store

import "fmt"

// TableDelta stages one table's slice of an atomic multi-table commit:
// the rows to retire (by current row ID) and the rows to insert. An
// update is expressed as a delete of the old row plus an insert of the
// new one — both land in the same commit version.
type TableDelta struct {
	Table     string
	DeleteIDs []int64
	Inserts   []Row
}

// Empty reports whether the delta changes nothing.
func (d TableDelta) Empty() bool { return len(d.DeleteIDs) == 0 && len(d.Inserts) == 0 }

// CommitDeltas atomically publishes multi-table deltas: each affected
// table gains exactly one new commit version, and the whole publish
// runs under the database write lock, so a snapshot pinned before the
// call sees none of it and one pinned after sees all of it — readers
// never observe a half-sync. Durability matches the atomicity: the
// batch is logged as ONE CRC-protected WAL record, replayed entirely
// or not at all after a crash.
//
// The critical section is O(changed rows): deltas are validated first
// (nothing applied on a validation error), then applied, then logged.
// Readers holding pinned snapshots are never blocked — they keep
// reading their frozen versions while the publish lands.
func (db *DB) CommitDeltas(deltas []TableDelta) error {
	if err := db.Failed(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	type stagedDelta struct {
		t *Table
		d TableDelta
	}
	var stage []stagedDelta
	seen := make(map[string]bool, len(deltas))
	for _, d := range deltas {
		if d.Empty() {
			continue
		}
		if seen[d.Table] {
			return fmt.Errorf("store: CommitDeltas names table %q twice", d.Table)
		}
		seen[d.Table] = true
		t, err := db.tableLocked(d.Table)
		if err != nil {
			return err
		}
		if err := t.validateDelta(d.DeleteIDs, d.Inserts); err != nil {
			return err
		}
		stage = append(stage, stagedDelta{t, d})
	}
	if len(stage) == 0 {
		return nil
	}
	// With db.mu held exclusively no writer can interleave between the
	// validation above and the applies below, so the applies cannot
	// fail and the multi-table publish is all-or-nothing.
	var walDeltas []walTableDelta
	for _, s := range stage {
		deleted := s.t.applyDelta(s.d.DeleteIDs, s.d.Inserts, db.wal != nil)
		if db.wal != nil {
			walDeltas = append(walDeltas, walTableDelta{
				table:   s.d.Table,
				deletes: deleted,
				inserts: s.d.Inserts,
			})
		}
	}
	if db.wal != nil {
		if err := db.wal.logBatch(walDeltas); err != nil {
			return db.walFail(err)
		}
	}
	return nil
}

// validateDelta checks a delta against the table's current version
// without applying it.
func (t *Table) validateDelta(deleteIDs []int64, inserts []Row) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.validateDeltaLocked(deleteIDs, inserts)
}

// applyDelta applies a validated delta as one commit version and, when
// wantDeleted, returns the deleted rows' values for WAL logging.
func (t *Table) applyDelta(deleteIDs []int64, inserts []Row, wantDeleted bool) []Row {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyDeltaLocked(deleteIDs, inserts, wantDeleted)
}
