// Package cache implements DrugTree's semantic result cache and the
// navigation-aware prefetcher — the "novel mechanisms" the poster
// credits for improving interactive query performance.
//
// The cache is range-semantic: entries remember the predicate range
// they cover, so a query for preorder interval [10,20] is answered
// from a cached [0,100] result by slicing out the covered rows
// (subsumption), not only by exact match. Eviction is least recently
// used: a hit, a Covers and a Put refresh an entry, and the entry
// touched longest ago goes first.
package cache

import (
	"slices"
	"sort"
	"sync"
	"unsafe"

	"drugtree/internal/store"
)

// Key identifies the semantic class of a cached result: one relation
// (or named view), the column the range predicate applies to, and a
// canonical rendering of any residual predicate. Two queries share an
// entry class iff all three match.
type Key struct {
	Relation string
	RangeCol string
	Residual string
}

// Entry is one cached result set covering a range, held as typed
// column vectors. Put takes ownership of the entry and its batch;
// from then on neither is mutated, and eviction, replacement and
// invalidation only drop the cache's reference, so a batch or window
// a Get handed out stays valid for as long as its holder keeps it.
type Entry struct {
	Key     Key
	Lo, Hi  int64 // inclusive covered range on RangeCol
	Columns []string
	// Batch holds the rows as the producer delivered them. While
	// RangeIdx >= 0 they ascend on the range column, so a subsumed Get
	// is a slice of it.
	Batch *store.ColBatch
	// RangeIdx is the position of RangeCol in Batch; -1 disables
	// subsumption for this entry (Put sets it when the column is not
	// INT, holds a NULL or is out of order).
	RangeIdx int
	// Version is the data version the entry was computed at.
	Version int64

	bytes   int64
	lastUse uint64 // the cache's tick at the last hit or Put
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits          int64
	SubsumedHits  int64 // hits answered by a window of a wider entry
	Misses        int64
	Evictions     int64
	Invalidations int64
	BytesCached   int64
}

// Cache is a bounded, range-semantic result cache. Safe for
// concurrent use.
type Cache struct {
	// ExactOnly disables range subsumption, turning the cache into a
	// plain exact-match result cache. Exists for the ablation
	// experiments; leave false in production.
	ExactOnly bool

	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[Key][]*Entry
	tick     uint64 // recency clock: one step per hit or Put
	stats    Stats
}

// New creates a cache bounded to capacity bytes.
func New(capacity int64) *Cache {
	return &Cache{capacity: capacity, entries: make(map[Key][]*Entry)}
}

// Heap footprint of the fixed parts, as the compiler lays them out: the
// Entry with its ColBatch, one Col header per column, a generic-mode
// Value cell, a string header.
const (
	entryOverhead = int64(unsafe.Sizeof(Entry{}) + unsafe.Sizeof(store.ColBatch{}))
	colOverhead   = int64(unsafe.Sizeof(store.Col{}))
	valueSize     = int64(unsafe.Sizeof(store.Value{}))
	strHeaderSize = int64(unsafe.Sizeof(""))
)

// batchBytes is the heap a batch pins: every vector's capacity plus
// the string bytes the cells point at. A coded column pins its code
// vector alone, 8 B a cell: its names are the DB's dictionary's, which
// outlives every entry.
func batchBytes(cb *store.ColBatch) int64 {
	n := entryOverhead
	for i := range cb.Cols {
		c := &cb.Cols[i]
		n += colOverhead + int64(cap(c.Null)) + 8*int64(cap(c.Int)+cap(c.Float)) +
			strHeaderSize*int64(cap(c.Str)) + valueSize*int64(cap(c.Vals))
		for _, s := range c.Str {
			n += int64(len(s))
		}
		for _, v := range c.Vals {
			n += int64(len(v.S))
		}
	}
	return n
}

// checkRange clears RangeIdx when the range column cannot be searched:
// not INT, a NULL key, or keys out of ascending order. Such an entry
// serves exact hits only. Every producer delivers its rows ordered on
// the range column, so the check is all a Put pays.
func (e *Entry) checkRange() {
	if e.RangeIdx < 0 {
		return
	}
	key := &e.Batch.Cols[e.RangeIdx]
	if key.Kind != store.KindInt || slices.Contains(key.Null, true) || !slices.IsSorted(key.Int) {
		e.RangeIdx = -1
	}
}

// window returns the rows whose range key lies in [lo,hi] as zero-copy
// slices of the entry's vectors.
func (e *Entry) window(lo, hi int64) *store.ColBatch {
	keys := e.Batch.Cols[e.RangeIdx].Int
	from := sort.Search(len(keys), func(i int) bool { return keys[i] >= lo })
	to := from + sort.Search(len(keys)-from, func(i int) bool { return keys[from+i] > hi })
	out := &store.ColBatch{Cols: make([]store.Col, len(e.Batch.Cols)), Rows: to - from}
	for c := range out.Cols {
		out.Cols[c] = e.Batch.Cols[c].Slice(from, to)
	}
	return out
}

// lookupLocked finds a current entry that can answer [lo,hi], counting
// the hit or miss, refreshing the hit entry's recency and dropping
// stale entries on contact. exact reports that the entry covers
// precisely [lo,hi].
func (c *Cache) lookupLocked(key Key, lo, hi int64, version int64) (e *Entry, exact bool) {
	list := c.entries[key]
	for i := 0; i < len(list); i++ {
		e := list[i]
		if e.Version != version {
			c.removeLocked(key, i)
			list = c.entries[key]
			i--
			c.stats.Invalidations++
			continue
		}
		if lo < e.Lo || e.Hi < hi {
			continue
		}
		exact := e.Lo == lo && e.Hi == hi
		if !exact && (e.RangeIdx < 0 || c.ExactOnly) {
			continue // subsumption unavailable for this entry
		}
		c.touchLocked(e)
		c.stats.Hits++
		if !exact {
			c.stats.SubsumedHits++
		}
		return e, exact
	}
	c.stats.Misses++
	return nil, false
}

// Get answers a range query [lo,hi] from the cache. version is the
// caller's current data version; stale entries are invalidated on
// contact. The returned batch holds the cached rows restricted to the
// requested range, in the order they were put; it aliases cache storage
// and must be treated read-only.
func (c *Cache) Get(key Key, lo, hi int64, version int64) (*store.ColBatch, []string, bool) {
	c.mu.Lock()
	e, exact := c.lookupLocked(key, lo, hi, version)
	c.mu.Unlock()
	switch {
	case e == nil:
		return nil, nil, false
	case exact:
		return e.Batch, e.Columns, true
	}
	return e.window(lo, hi), e.Columns, true
}

// Covers is Get without the result: it reports whether the cache can
// answer [lo,hi], with the same counting, recency refresh and
// stale-entry invalidation — the caller is about to rely on the range
// being resident — but builds nothing.
func (c *Cache) Covers(key Key, lo, hi int64, version int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _ := c.lookupLocked(key, lo, hi, version)
	return e != nil
}

// Put inserts a computed result covering [lo,hi].
func (c *Cache) Put(e *Entry) {
	e.checkRange()
	e.bytes = batchBytes(e.Batch)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.bytes > c.capacity {
		return // too large to ever cache
	}
	// Drop narrower same-version entries this one covers.
	list := c.entries[e.Key]
	for i := 0; i < len(list); i++ {
		old := list[i]
		if old.Version == e.Version && e.Lo <= old.Lo && old.Hi <= e.Hi {
			c.removeLocked(e.Key, i)
			list = c.entries[e.Key]
			i--
		}
	}
	for c.used+e.bytes > c.capacity {
		if !c.evictLocked() {
			return
		}
	}
	c.touchLocked(e)
	c.entries[e.Key] = append(c.entries[e.Key], e)
	c.used += e.bytes
	c.stats.BytesCached = c.used
}

// touchLocked marks e as the most recently used entry.
func (c *Cache) touchLocked(e *Entry) {
	c.tick++
	e.lastUse = c.tick
}

// evictLocked removes the least recently used entry. Ticks are unique,
// so the victim never depends on map order.
func (c *Cache) evictLocked() bool {
	var victim *Entry
	var victimIdx int
	for _, list := range c.entries {
		for i, e := range list {
			if victim == nil || e.lastUse < victim.lastUse {
				victim, victimIdx = e, i
			}
		}
	}
	if victim == nil {
		return false
	}
	c.removeLocked(victim.Key, victimIdx)
	c.stats.Evictions++
	return true
}

func (c *Cache) removeLocked(k Key, i int) {
	list := c.entries[k]
	c.used -= list[i].bytes
	list[i] = list[len(list)-1]
	c.entries[k] = list[:len(list)-1]
	if len(c.entries[k]) == 0 {
		delete(c.entries, k)
	}
	c.stats.BytesCached = c.used
}

// Clear empties the cache.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Key][]*Entry)
	c.used = 0
	c.stats.BytesCached = 0
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, list := range c.entries {
		n += len(list)
	}
	return n
}
