package core

import (
	"context"
	"fmt"
	"time"

	"drugtree/internal/cache"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// NodeView is one tree node as shipped to clients.
type NodeView struct {
	Pre       int64
	Name      string
	ParentPre int64
	Depth     int64
	IsLeaf    bool
	Length    float64
	RootDist  float64
	LeafCount int64
	X, Y      float64
}

// treeViewCols are the tree_nodes columns a NodeView carries, in
// NodeView field order.
const treeViewCols = "pre, name, parent_pre, depth, is_leaf, branch_length, root_dist, leaf_count, x, y"

// viewsFromBatch decodes tree_nodes rows held as treeViewCols vectors
// through Col.Value.
func viewsFromBatch(cb *store.ColBatch) []NodeView {
	c := cb.Cols
	views := make([]NodeView, cb.Rows)
	for i := range views {
		views[i] = NodeView{
			Pre:       c[0].Value(i).I,
			Name:      c[1].Value(i).S,
			ParentPre: c[2].Value(i).I,
			Depth:     c[3].Value(i).I,
			IsLeaf:    c[4].Value(i).I != 0,
			Length:    c[5].Value(i).F,
			RootDist:  c[6].Value(i).F,
			LeafCount: c[7].Value(i).I,
			X:         c[8].Value(i).F,
			Y:         c[9].Value(i).F,
		}
	}
	return views
}

var treeCacheKey = cache.Key{Relation: TreeTable, RangeCol: "pre", Residual: ""}

// OpenSubtree returns every node in the subtree rooted at the named
// node, serving from the semantic cache when possible and recording
// the visit for the prefetcher. cached reports whether the cache
// answered.
func (e *Engine) OpenSubtree(ctx context.Context, nodeName string) (views []NodeView, cached bool, err error) {
	cb, cached, err := e.visit(ctx, nodeName, true)
	if err != nil {
		return nil, false, err
	}
	return viewsFromBatch(cb), cached, nil
}

// VisitSubtree is OpenSubtree for a caller that renders from the
// in-memory tree and needs only the side effects: the visit is
// recorded, the cache is consulted and, on a miss, filled, and the
// navigate counters move — but no views are built.
func (e *Engine) VisitSubtree(ctx context.Context, nodeName string) (cached bool, err error) {
	_, cached, err = e.visit(ctx, nodeName, false)
	return cached, err
}

// visit is one navigation step. The batch is nil when the caller does
// not want rows and the cache covered the subtree.
func (e *Engine) visit(ctx context.Context, nodeName string, wantRows bool) (cb *store.ColBatch, cached bool, err error) {
	id, err := e.NodeByName(nodeName)
	if err != nil {
		return nil, false, err
	}
	start := time.Now()
	defer func() {
		e.Metrics.Histogram("navigate.latency").Record(time.Since(start))
	}()
	e.prefetcher.RecordVisit(id)
	lo, hi := e.tree.SubtreeInterval(id)
	if e.cache != nil && wantRows {
		cb, _, cached = e.cache.Get(treeCacheKey, int64(lo), int64(hi), e.treeTab.Version())
	} else if e.cache != nil {
		cached = e.cache.Covers(treeCacheKey, int64(lo), int64(hi), e.treeTab.Version())
	}
	if cached {
		e.Metrics.Counter("navigate.cache_hits").Inc()
		return cb, true, nil
	}
	if cb, err = e.fetchSubtree(ctx, lo, hi); err != nil {
		return nil, false, err
	}
	e.Metrics.Counter("navigate.cache_misses").Inc()
	return cb, false, nil
}

// fetchSubtree reads the tree_nodes rows with pre in [lo,hi] through
// the query path behind the statement cache and caches them, tagged
// with the tree_nodes version of the snapshot the read ran at — so a
// commit landing meanwhile can never leave newer rows under an older
// tag. It returns the entry's batch, which arrives ordered on pre.
func (e *Engine) fetchSubtree(ctx context.Context, lo, hi int) (*store.ColBatch, error) {
	start := time.Now()
	src := fmt.Sprintf("SELECT %s FROM %s WHERE pre BETWEEN %d AND %d", treeViewCols, TreeTable, lo, hi)
	stmt, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	snap := e.db.PinSnapshot()
	defer snap.Release()
	res, err := e.execute(ctx, stmt, snap, start)
	if err != nil {
		return nil, err
	}
	entry := &cache.Entry{
		Key: treeCacheKey, Lo: int64(lo), Hi: int64(hi),
		Columns: res.Columns, Batch: res.Batch, RangeIdx: 0,
	}
	entry.Version, _ = snap.Version(TreeTable)
	if e.cache != nil {
		e.cache.Put(entry)
	}
	return entry.Batch, nil
}

// RunPrefetch executes the prefetcher's current suggestions, warming
// the cache. It returns the number of subtrees prefetched. The server
// calls this in the background after answering each interaction; the
// experiments call it synchronously for determinism.
func (e *Engine) RunPrefetch(ctx context.Context) int {
	if !e.cfg.EnablePrefetch || e.cache == nil {
		return 0
	}
	suggestions := e.prefetcher.Suggest(e.tree)
	n := 0
	for _, id := range suggestions {
		// Only prefetch what the cache does not already cover.
		lo, hi := e.tree.SubtreeInterval(id)
		if e.cache.Covers(treeCacheKey, int64(lo), int64(hi), e.treeTab.Version()) {
			continue
		}
		if _, err := e.fetchSubtree(ctx, lo, hi); err == nil {
			n++
			e.Metrics.Counter("prefetch.executed").Inc()
		}
	}
	return n
}

// ResetSession clears navigation history and cache counters between
// simulated sessions.
func (e *Engine) ResetSession() {
	e.prefetcher.Reset()
	if e.cache != nil {
		e.cache.Clear()
	}
	if e.stmtCache != nil {
		e.stmtCache.clear()
	}
	e.Metrics.Reset()
}

// Children returns the direct children of the named node.
func (e *Engine) Children(nodeName string) ([]NodeView, error) {
	id, err := e.NodeByName(nodeName)
	if err != nil {
		return nil, err
	}
	var out []NodeView
	for _, c := range e.tree.Node(id).Children {
		out = append(out, e.nodeView(c))
	}
	return out, nil
}

// nodeView builds a NodeView directly from the in-memory tree (used
// for structural navigation that skips the query path).
func (e *Engine) nodeView(id phylo.NodeID) NodeView {
	n := e.tree.Node(id)
	parentPre := int64(-1)
	if n.Parent != phylo.None {
		parentPre = int64(e.tree.Pre(n.Parent))
	}
	return NodeView{
		Pre:       int64(e.tree.Pre(id)),
		Name:      n.Name,
		ParentPre: parentPre,
		Depth:     int64(e.tree.Depth(id)),
		IsLeaf:    n.IsLeaf(),
		Length:    n.Length,
		RootDist:  e.tree.RootDistance(id),
		LeafCount: int64(e.tree.LeafCount(id)),
		X:         e.layout.X[id],
		Y:         e.layout.Y[id],
	}
}

// Root returns the root node view.
func (e *Engine) Root() NodeView {
	return e.nodeView(e.tree.Root())
}

// Breadcrumbs returns the path from the root to the named node
// (inclusive, root first) through the DTQL engine's ANCESTOR_OF
// operator — the query behind the mobile client's breadcrumb bar.
func (e *Engine) Breadcrumbs(ctx context.Context, nodeName string) ([]NodeView, error) {
	if _, err := e.NodeByName(nodeName); err != nil {
		return nil, err
	}
	res, err := e.QueryColumns(ctx, fmt.Sprintf(
		"SELECT %s FROM %s WHERE ANCESTOR_OF(pre, %s) ORDER BY depth",
		treeViewCols, TreeTable, query.Quote(nodeName)))
	if err != nil {
		return nil, err
	}
	return viewsFromBatch(res.Batch), nil
}
