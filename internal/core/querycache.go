package core

import (
	"container/list"
	"sync"

	"drugtree/internal/query"
	"drugtree/internal/store"
)

// queryCache is a statement-level LRU result cache: repeated DTQL
// strings are answered without re-planning or re-executing, as long
// as no table changed since the entry was filled. It complements the
// range-semantic cache (which serves *subsumed* tree navigation);
// this one serves exact repeats of arbitrary statements — the
// dashboard-refresh pattern.
//
// get returns a deep copy (query.Result.Clone), so a caller mutating
// the rows it was handed cannot corrupt the cached entry that later
// hits serve from.
type queryCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recent
}

type queryCacheEntry struct {
	key     string
	version string // per-table version key at fill time (see versionKey)
	res     *query.Result
}

func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element, capacity),
		order:    list.New(),
	}
}

// get returns the cached result when present and still current.
func (c *queryCache) get(key string, version string) (*query.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*queryCacheEntry)
	if e.version != version {
		c.order.Remove(el)
		delete(c.entries, key)
		return nil, false
	}
	c.order.MoveToFront(el)
	return e.res.Clone(), true
}

// put stores a result, evicting the least-recently-used entry at
// capacity.
func (c *queryCache) put(key string, version string, res *query.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*queryCacheEntry).version = version
		el.Value.(*queryCacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.order.Remove(back)
		delete(c.entries, back.Value.(*queryCacheEntry).key)
	}
	el := c.order.PushFront(&queryCacheEntry{key: key, version: version, res: res})
	c.entries[key] = el
}

// clear empties the cache.
func (c *queryCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*list.Element, c.capacity)
	c.order.Init()
}

// len reports the number of cached statements.
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// versionKey renders the per-table commit versions of exactly the
// tables stmt reads — taken from the statement's pinned snapshot, so
// the currency check and the execution agree on one image. Table
// versions are the statement cache's only invalidation signal, sharded
// or not. A commit to a table the statement never reads leaves its key
// unchanged, so a ligands sync no longer evicts cached tree_nodes
// plans.
func (e *Engine) versionKey(stmt *query.SelectStmt, snap *store.SnapshotHandle) string {
	vers := make(map[string]int64)
	for _, name := range query.TablesReferenced(stmt) {
		if v, ok := snap.Version(name); ok {
			vers[name] = v
		}
	}
	return store.VersionKey(vers)
}
