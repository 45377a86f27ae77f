package core

import (
	"fmt"
	"math/big"
	"sync"

	"drugtree/internal/integrate"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// Incremental subtree-overlay maintenance. The hot interactive shape —
// "ligand activity aggregated over this clade" — is a WITHIN_SUBTREE
// aggregate over the activities table. ActivityOverlay keeps, for
// every tree node, the (rows, count, exact sum) of affinity over all
// activity rows whose protein sits inside that node's subtree, updated
// from the store's commit-event stream: each changed row costs one
// walk up its leaf's ancestor chain (O(changed rows × depth)) instead
// of a full recompute. The overlay is versioned with the activities
// table's commit version, so the optimizer substitutes an O(1)
// OverlayRead for the scan exactly when a statement's pinned snapshot
// matches (see query/overlay.go).

// overlayKeyColumn and overlayMetricColumn name the activities columns
// the overlay is keyed and summed on.
const (
	overlayKeyColumn    = "protein_id"
	overlayMetricColumn = "affinity"
)

// exactSum accumulates float64 values exactly: each addend f is the
// integer f × 2^1074 (every finite float64 is an integer multiple of
// 2^-1074), summed in arbitrary-precision integers. Add and remove are
// exact inverses, so an overlay maintained by incremental deltas lands
// on bit-identical state to one rebuilt from scratch regardless of the
// order rows arrived or left in — the T14 byte-identity gate rests on
// this.
type exactSum struct{ acc big.Int }

// fixedPoint returns f × 2^1074 as an exact integer.
func fixedPoint(f float64) *big.Int {
	bf := new(big.Float).SetFloat64(f)
	bf.SetMantExp(bf, 1074)
	i, _ := bf.Int(nil)
	return i
}

// Float64 rounds the exact accumulator to the nearest float64 — one
// correctly-rounded conversion, no intermediate rounding.
func (s *exactSum) Float64() float64 {
	prec := uint(s.acc.BitLen()) + 1
	if prec < 64 {
		prec = 64
	}
	bf := new(big.Float).SetPrec(prec).SetInt(&s.acc)
	bf.SetMantExp(bf, -1074)
	f, _ := bf.Float64()
	return f
}

// ActivityOverlay implements query.SubtreeOverlay over the activities
// table. Safe for concurrent use: Read takes a read lock, commit-event
// application a write lock.
type ActivityOverlay struct {
	tree      *phylo.Tree
	keyIdx    int
	metricIdx int
	parent    []int // preorder → parent preorder, -1 at the root

	mu      sync.RWMutex
	ready   bool
	version int64
	// pending buffers events that land while the base image is still
	// loading; they replay (version-filtered) once the load finishes.
	pending []store.CommitEvent
	rows    []int64
	count   []int64
	sums    []exactSum
}

// newOverlayShell allocates the per-node state and tree mappings.
func newOverlayShell(tree *phylo.Tree, schema *store.Schema) (*ActivityOverlay, error) {
	keyIdx := schema.ColumnIndex(overlayKeyColumn)
	metricIdx := schema.ColumnIndex(overlayMetricColumn)
	if keyIdx < 0 || metricIdx < 0 {
		return nil, fmt.Errorf("core: activities table lacks %s/%s columns", overlayKeyColumn, overlayMetricColumn)
	}
	n := tree.Len()
	o := &ActivityOverlay{
		tree:      tree,
		keyIdx:    keyIdx,
		metricIdx: metricIdx,
		parent:    make([]int, n),
		rows:      make([]int64, n),
		count:     make([]int64, n),
		sums:      make([]exactSum, n),
	}
	for p := 0; p < n; p++ {
		node := tree.Node(tree.NodeAtPre(p))
		if node.Parent == phylo.None {
			o.parent[p] = -1
		} else {
			o.parent[p] = tree.Pre(node.Parent)
		}
	}
	return o, nil
}

// NewActivityOverlay builds the overlay against the current activities
// version and keeps it current from the database's commit-event
// stream. The subscription is registered before the base image loads;
// commits landing mid-load are buffered and replayed version-filtered,
// so none is missed or double-applied.
func NewActivityOverlay(db *store.DB, tree *phylo.Tree) (*ActivityOverlay, error) {
	t, err := db.Table(integrate.TableActivities)
	if err != nil {
		return nil, err
	}
	o, err := newOverlayShell(tree, t.Schema())
	if err != nil {
		return nil, err
	}
	db.OnCommit(o.onCommit)
	snap := db.PinSnapshot()
	defer snap.Release()
	tv, err := snap.View(integrate.TableActivities)
	if err != nil {
		return nil, err
	}
	// All store reads happen before taking o.mu: the commit hook runs
	// under the table lock and takes o.mu, so the reverse order here
	// would be a lock-order cycle.
	ver := tv.Version()
	base := tv.Snapshot()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range base {
		o.bumpLocked(r, +1)
	}
	o.version = ver
	o.ready = true
	for _, ev := range o.pending {
		if ev.Version > ver {
			o.applyLocked(ev)
		}
	}
	o.pending = nil
	return o, nil
}

// RebuildActivityOverlay computes the overlay from scratch against the
// image pinned by snap, without subscribing to commits — the full-
// recompute oracle T14 compares the live overlay against.
func RebuildActivityOverlay(snap *store.SnapshotHandle, tree *phylo.Tree) (*ActivityOverlay, error) {
	tv, err := snap.View(integrate.TableActivities)
	if err != nil {
		return nil, err
	}
	o, err := newOverlayShell(tree, tv.Table().Schema())
	if err != nil {
		return nil, err
	}
	ver := tv.Version()
	base := tv.Snapshot()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range base {
		o.bumpLocked(r, +1)
	}
	o.version = ver
	o.ready = true
	return o, nil
}

// onCommit is the db hook: it applies activities deltas in commit
// order. It runs inside the table's commit critical section, so the
// overlay version is never behind the latest commit once the call
// returns.
func (o *ActivityOverlay) onCommit(ev store.CommitEvent) {
	if ev.Table != integrate.TableActivities {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.ready {
		o.pending = append(o.pending, ev)
		return
	}
	o.applyLocked(ev)
}

func (o *ActivityOverlay) applyLocked(ev store.CommitEvent) {
	for _, r := range ev.Inserted {
		o.bumpLocked(r, +1)
	}
	for _, r := range ev.Deleted {
		o.bumpLocked(r, -1)
	}
	o.version = ev.Version
}

// bumpLocked propagates one row up its key node's ancestor chain.
// Aggregation semantics mirror the executor's aggState: every row
// counts toward Rows, non-NULL metrics toward Count, numeric metrics
// toward Sum. Rows keyed outside the tree contribute nothing — the
// scan path's subtree-membership test would not match them either.
func (o *ActivityOverlay) bumpLocked(r store.Row, sign int64) {
	key := r[o.keyIdx]
	if key.K != store.KindString {
		return
	}
	id, ok := o.tree.NodeByName(key.S)
	if !ok {
		return
	}
	m := r[o.metricIdx]
	nonNull := !m.IsNull()
	var fx *big.Int
	if nonNull && m.Numeric() {
		fx = fixedPoint(m.AsFloat())
	}
	for p := o.tree.Pre(id); p >= 0; p = o.parent[p] {
		o.rows[p] += sign
		if nonNull {
			o.count[p] += sign
		}
		if fx != nil {
			if sign > 0 {
				o.sums[p].acc.Add(&o.sums[p].acc, fx)
			} else {
				o.sums[p].acc.Sub(&o.sums[p].acc, fx)
			}
		}
	}
}

// Table implements query.SubtreeOverlay.
func (o *ActivityOverlay) Table() string { return integrate.TableActivities }

// KeyColumn implements query.SubtreeOverlay.
func (o *ActivityOverlay) KeyColumn() string { return overlayKeyColumn }

// MetricColumn implements query.SubtreeOverlay.
func (o *ActivityOverlay) MetricColumn() string { return overlayMetricColumn }

// Read implements query.SubtreeOverlay: the aggregate for the named
// node as of exactly the requested activities commit version. ok is
// false on a version mismatch or unknown node — the caller falls back
// to scanning its snapshot.
func (o *ActivityOverlay) Read(node string, version int64) (query.OverlayAgg, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if !o.ready || version != o.version {
		return query.OverlayAgg{}, false
	}
	id, ok := o.tree.NodeByName(node)
	if !ok {
		return query.OverlayAgg{}, false
	}
	return o.aggLocked(o.tree.Pre(id)), true
}

// Version returns the activities commit version the overlay reflects.
func (o *ActivityOverlay) Version() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.version
}

// Nodes returns the number of tree nodes the overlay covers.
func (o *ActivityOverlay) Nodes() int { return len(o.rows) }

// Agg returns the aggregate at preorder position p — the comparison
// hook the T14 byte-identity gate walks.
func (o *ActivityOverlay) Agg(p int) query.OverlayAgg {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.aggLocked(p)
}

func (o *ActivityOverlay) aggLocked(p int) query.OverlayAgg {
	return query.OverlayAgg{Rows: o.rows[p], Count: o.count[p], Sum: o.sums[p].Float64()}
}
