package core

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
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

// exactSum accumulates float64 values exactly, one bucket per exponent.
// A finite float64 is M × 2^(E−1075) for a 53-bit integer mantissa M
// and a biased exponent E (a subnormal is E = 1 without the hidden bit),
// so the sum keeps, for each distinct E among its addends, one signed
// 128-bit total of M: exact for up to 2^74 addends, commutative, and
// with add and remove exact inverses. An overlay maintained by
// incremental deltas therefore holds the same exact value as one rebuilt
// from scratch, whatever order rows arrived or left in —
// TestOverlayIncrementalMatchesRebuild rests on this — and folding a row into a node costs
// two 64-bit additions, not an arbitrary-precision integer. Non-finite
// addends are counted in the same list under keys past the finite
// exponents, so a node that never saw one pays nothing for them. A
// bucket whose total returns to zero is dropped: the empty list is the
// empty sum.
type exactSum struct{ b []expBucket }

// expBucket is one key's total, the two's-complement integer hi:lo:
// mantissa units of 2^(e−1075) under a finite exponent key, an addend
// count under a non-finite one.
type expBucket struct {
	e      int64
	hi, lo uint64
}

// Bucket keys past the finite biased exponents 1…2046.
const (
	keyPosInf = 2047 + iota
	keyNegInf
	keyNaN
)

// addend is one value decomposed for exactSum — its bucket key and
// signed mantissa — once per row rather than once per ancestor.
type addend struct {
	e   int64
	m   uint64 // 0 for a zero of either sign, which adds nothing
	neg bool
}

func addendOf(f float64) addend {
	b := math.Float64bits(f)
	e, m, neg := int64(b>>52&0x7ff), b&(1<<52-1), b>>63 != 0
	switch {
	case e == 0x7ff && m != 0:
		return addend{e: keyNaN, m: 1}
	case e == 0x7ff && neg:
		return addend{e: keyNegInf, m: 1}
	case e == 0x7ff:
		return addend{e: keyPosInf, m: 1}
	case e == 0:
		e = 1
	default:
		m |= 1 << 52
	}
	return addend{e: e, m: m, neg: neg}
}

// add folds a into the sum, or takes it back out when remove is set.
func (s *exactSum) add(a addend, remove bool) {
	if a.m == 0 {
		return
	}
	i := 0
	for i < len(s.b) && s.b[i].e != a.e {
		i++
	}
	if i == len(s.b) {
		s.b = append(s.b, expBucket{e: a.e})
	}
	b := &s.b[i]
	var c uint64
	if a.neg != remove {
		b.lo, c = bits.Sub64(b.lo, a.m, 0)
		b.hi -= c
	} else {
		b.lo, c = bits.Add64(b.lo, a.m, 0)
		b.hi += c
	}
	if b.hi == 0 && b.lo == 0 {
		last := len(s.b) - 1
		s.b[i] = s.b[last]
		s.b = s.b[:last]
	}
}

// Float64 returns the sum as IEEE summation of the addends has it, but
// with no intermediate rounding: NaN when a NaN or both infinities are
// present, the infinity when only one sign is, and otherwise the exact
// finite total rounded once to the nearest float64 (±Inf past
// MaxFloat64). The buckets are combined here, in math/big, once per
// read.
func (s *exactSum) Float64() float64 {
	var nan, posInf, negInf bool
	for _, b := range s.b {
		switch b.e {
		case keyNaN:
			nan = true
		case keyPosInf:
			posInf = true
		case keyNegInf:
			negInf = true
		}
	}
	switch {
	case nan || posInf && negInf:
		return math.NaN()
	case posInf:
		return math.Inf(1)
	case negInf:
		return math.Inf(-1)
	}
	// Every bucket is finite: the total is Σ hi:lo × 2^(e−1), an exact
	// integer multiple of 2^-1074.
	var acc, x, lo big.Int
	for _, b := range s.b {
		hi, l, neg := b.hi, b.lo, int64(b.hi) < 0
		if neg {
			var borrow uint64
			l, borrow = bits.Sub64(0, l, 0)
			hi = -hi - borrow
		}
		x.SetUint64(hi).Lsh(&x, 64).Add(&x, lo.SetUint64(l)).Lsh(&x, uint(b.e-1))
		if neg {
			x.Neg(&x)
		}
		acc.Add(&acc, &x)
	}
	bf := new(big.Float).SetPrec(max(uint(acc.BitLen())+1, 64)).SetInt(&acc)
	f, _ := bf.SetMantExp(bf, -1074).Float64()
	return f
}

// ActivityOverlay implements query.SubtreeOverlay over the activities
// table. Safe for concurrent use: Read takes a read lock, commit-event
// application a write lock.
type ActivityOverlay struct {
	tree      *phylo.Tree
	keyIdx    int
	metricIdx int
	// preOfCode is the tree's ranking of the DB's codes
	// (store.DB.RankOfCode), nil when it has none: a committed row's
	// code is its node's ID.
	preOfCode []int32

	mu      sync.RWMutex
	ready   bool
	version int64
	// pending buffers events that land while the base image is still
	// loading; they replay (version-filtered) once the load finishes.
	pending []store.CommitEvent
	// Per-node state by node ID, which is the preorder number.
	rows  []int64
	count []int64
	sums  []exactSum
}

// newOverlayShell allocates the per-node state.
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
		rows:      make([]int64, n),
		count:     make([]int64, n),
		sums:      make([]exactSum, n),
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
	o.preOfCode = db.RankOfCode(tree)
	db.OnCommit(o.onCommit)
	snap := db.PinSnapshot()
	defer snap.Release()
	ver, err := o.loadBase(snap)
	if err != nil {
		return nil, err
	}
	o.publish(ver)
	return o, nil
}

// RebuildActivityOverlay computes the overlay from scratch against the
// image pinned by snap, without subscribing to commits — the full-
// recompute oracle TestOverlayIncrementalMatchesRebuild compares the
// live overlay against.
func RebuildActivityOverlay(snap *store.SnapshotHandle, tree *phylo.Tree) (*ActivityOverlay, error) {
	tv, err := snap.View(integrate.TableActivities)
	if err != nil {
		return nil, err
	}
	o, err := newOverlayShell(tree, tv.Table().Schema())
	if err != nil {
		return nil, err
	}
	ver, err := o.loadBase(snap)
	if err != nil {
		return nil, err
	}
	o.publish(ver)
	return o, nil
}

// loadBase folds the activities image snap pins into the per-node state
// and returns its version. Scan shows each row in place, under the
// table's read lock, so the base image materialises nothing. The fold
// takes no o.mu: taking it around the scan would invert the commit
// hook's table-then-overlay lock order, and none is needed — until
// publish no reader holds the overlay and the hook touches only pending.
func (o *ActivityOverlay) loadBase(snap *store.SnapshotHandle) (int64, error) {
	tv, err := snap.View(integrate.TableActivities)
	if err != nil {
		return 0, err
	}
	tv.Scan(func(_ int64, r store.Row) bool {
		o.bumpLocked(o.nodeOf(r[o.keyIdx]), r[o.metricIdx], +1)
		return true
	})
	return tv.Version(), nil
}

// publish marks the overlay current at the base image's version ver
// and replays the commits buffered since the subscription, skipping
// those the base image already holds.
func (o *ActivityOverlay) publish(ver int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.version, o.ready = ver, true
	for _, ev := range o.pending {
		if ev.Version > ver {
			o.applyLocked(ev)
		}
	}
	o.pending = nil
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
		// The event's retired rows are readable only during this call.
		o.pending = append(o.pending, ev.Detach())
		return
	}
	o.applyLocked(ev)
}

func (o *ActivityOverlay) applyLocked(ev store.CommitEvent) {
	for i, r := range ev.Inserted {
		o.bumpLocked(o.eventNode(ev, i, false, r[o.keyIdx]), r[o.metricIdx], +1)
	}
	for i := 0; i < ev.NumDeleted(); i++ {
		o.bumpLocked(o.eventNode(ev, i, true, ev.DeletedCell(i, o.keyIdx)), ev.DeletedCell(i, o.metricIdx), -1)
	}
	o.version = ev.Version
}

// eventNode returns the node of the i-th inserted or retired row of ev,
// keyed key: its code's rank, an array read, when the key column is
// coded and ranked, else nodeOf(key).
func (o *ActivityOverlay) eventNode(ev store.CommitEvent, i int, deleted bool, key store.Value) phylo.NodeID {
	c, coded := ev.Code(o.keyIdx, i, deleted)
	switch {
	case !coded || o.preOfCode == nil:
		return o.nodeOf(key)
	case int(c) < len(o.preOfCode):
		return phylo.NodeID(o.preOfCode[c]) // −1 is phylo.None
	}
	return phylo.None
}

// nodeOf resolves a key cell through the tree's name index: a NULL or a
// name no node carries has no node.
func (o *ActivityOverlay) nodeOf(key store.Value) phylo.NodeID {
	if id, ok := o.tree.NodeByName(key.S); ok && key.K == store.KindString {
		return id
	}
	return phylo.None
}

// bumpLocked propagates one row's metric cell up the ancestor chain of
// its key's node id. Aggregation semantics mirror the executor's
// aggState: every row counts toward Rows, non-NULL metrics toward Count,
// numeric metrics toward Sum. Rows keyed outside the tree (id None)
// contribute nothing — the scan path's subtree-membership test would not
// match them either.
func (o *ActivityOverlay) bumpLocked(id phylo.NodeID, metric store.Value, sign int64) {
	if id == phylo.None {
		return
	}
	nonNull := !metric.IsNull()
	var a addend
	if nonNull && metric.Numeric() {
		a = addendOf(metric.AsFloat())
	}
	for ; id != phylo.None; id = o.tree.Parent(id) {
		o.rows[id] += sign
		if nonNull {
			o.count[id] += sign
		}
		o.sums[id].add(a, sign < 0)
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
	return o.aggLocked(int(id)), true
}

// Version returns the activities commit version the overlay reflects.
func (o *ActivityOverlay) Version() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.version
}

// Nodes returns the number of tree nodes the overlay covers.
func (o *ActivityOverlay) Nodes() int { return len(o.rows) }

// Agg returns the aggregate at node p (its preorder number) — the
// comparison hook TestOverlayIncrementalMatchesRebuild walks.
func (o *ActivityOverlay) Agg(p int) query.OverlayAgg {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.aggLocked(p)
}

func (o *ActivityOverlay) aggLocked(p int) query.OverlayAgg {
	return query.OverlayAgg{Rows: o.rows[p], Count: o.count[p], Sum: o.sums[p].Float64()}
}
