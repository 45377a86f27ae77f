// Package lockstore is the store's lock hierarchy in miniature: a
// commit holds DB.mu while it validates each table under Table.mu.
// Unpin inverts it — it looks its table up through the DB (DB.mu)
// while still holding Table.mu — so a commit and a snapshot release on
// one table can each wait on the lock the other holds. A concurrent
// test only hangs if it interleaves the two; the cycle is in the
// syntax either way.
package lockstore

import "sync"

type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

type Table struct {
	mu   sync.RWMutex
	name string
	pins map[int64]int
}

func (db *DB) Commit(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[name]
	t.validate() // want `acquires lockstore\.Table\.mu while lockstore\.DB\.mu is held, creating a lock-order cycle`
}

func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

func (t *Table) validate() {
	t.mu.RLock()
	defer t.mu.RUnlock()
}

func (t *Table) Unpin(db *DB, v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if db.Table(t.name) == nil { // want `acquires lockstore\.DB\.mu while lockstore\.Table\.mu is held, creating a lock-order cycle`
		return
	}
	delete(t.pins, v)
}
