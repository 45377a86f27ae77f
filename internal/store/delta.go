package store

import "fmt"

// TableDelta stages one table's slice of an atomic multi-table commit:
// the rows to retire (by current row ID) and the rows to insert. A
// replace is a delete of the old row plus an insert of the new one in
// one delta — both land in the same commit version, the same WAL record
// and the same CommitEvent.
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
// It is the store's only write path: Insert and Delete are one-row
// deltas through it, and replay decodes the same record back into the
// same per-table apply.
//
// The critical section is O(changed rows): deltas are validated first
// (nothing applied on a validation error), then applied, then logged.
// Readers holding pinned snapshots are never blocked — they keep
// reading their frozen versions while the publish lands.
func (db *DB) CommitDeltas(deltas []TableDelta) error {
	_, err := db.commit(deltas)
	return err
}

// commit is CommitDeltas returning, besides the error, the ID of the
// last row inserted (−1 when the deltas insert nothing).
func (db *DB) commit(deltas []TableDelta) (last int64, err error) {
	if err := db.Failed(); err != nil {
		return -1, err
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
			return -1, fmt.Errorf("store: CommitDeltas names table %q twice", d.Table)
		}
		seen[d.Table] = true
		t, err := db.tableLocked(d.Table)
		if err != nil {
			return -1, err
		}
		if err := t.validateDelta(d.DeleteIDs, d.Inserts, &db.idScratch); err != nil {
			return -1, err
		}
		stage = append(stage, stagedDelta{t, d})
	}
	// With db.mu held exclusively no writer can interleave between the
	// validation above and the applies below, so the applies cannot
	// fail and the multi-table publish is all-or-nothing.
	last = -1
	var walDeltas []walTableDelta
	for _, s := range stage {
		var deleted []Row
		deleted, last = s.t.applyDelta(s.d.DeleteIDs, s.d.Inserts, db.wal != nil)
		if db.wal != nil {
			walDeltas = append(walDeltas, walTableDelta{
				table:   s.d.Table,
				deletes: deleted,
				inserts: s.d.Inserts,
			})
		}
	}
	if len(walDeltas) > 0 {
		if err := db.wal.logBatch(walDeltas); err != nil {
			return last, db.poison(err)
		}
	}
	return last, nil
}

// validateDelta checks a delta against the table's current version
// without applying it.
func (t *Table) validateDelta(deleteIDs []int64, inserts []Row, scratch *[]int64) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.validateDeltaLocked(deleteIDs, inserts, scratch)
}

// applyDelta is applyDeltaLocked under the table's write lock.
func (t *Table) applyDelta(deleteIDs []int64, inserts []Row, wantDeleted bool) ([]Row, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyDeltaLocked(deleteIDs, inserts, wantDeleted)
}
