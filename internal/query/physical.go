package query

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// ExecStats counts work done by one execution, used by experiments to
// show *why* the optimized engine is faster. Counters are updated with
// atomic adds and read through Snapshot's atomic loads, so one
// ExecStats may be shared between goroutines; the executor reads it
// once the statement's operators have returned.
type ExecStats struct {
	RowsScanned  int64 // rows read from base tables
	RowsIndexed  int64 // rows fetched through an index
	RowsJoined   int64 // rows emitted by join operators
	RowsReturned int64
	// Ops holds per-operator counters, one entry per Result.Plan line
	// in the same order. They are filled while rows stream out and
	// rendered by EXPLAIN ANALYZE (Result.AnnotatedPlan).
	Ops []*OpStats
}

// Snapshot returns a consistent copy of the counters using atomic
// loads. A plain struct copy (*s) would race with a goroutine still
// doing atomic adds; every read of a live ExecStats goes through here.
func (s *ExecStats) Snapshot() ExecStats {
	return ExecStats{
		RowsScanned:  atomic.LoadInt64(&s.RowsScanned),
		RowsIndexed:  atomic.LoadInt64(&s.RowsIndexed),
		RowsJoined:   atomic.LoadInt64(&s.RowsJoined),
		RowsReturned: atomic.LoadInt64(&s.RowsReturned),
		Ops:          s.Ops,
	}
}

// OpStats counts one physical operator's work: rows in (where the
// operator tracks it), rows out and batches out. Counters are written
// only from the goroutine that runs the statement, so plain increments
// suffice.
type OpStats struct {
	Name    string // operator description (the plan line, unindented)
	RowsIn  int64  // rows entering the operator (a join's probe rows); 0 when untracked
	RowsOut int64  // rows emitted
	Batches int64  // batches emitted
	// Build is the input a hash join hashed ("left" or "right", empty for
	// every other operator) and BuildRows the rows it held.
	Build     string
	BuildRows int64
}

// addIn records rows entering the operator.
func (o *OpStats) addIn(n int64) {
	if o != nil {
		o.RowsIn += n
	}
}

// emit records one emitted batch and its live rows.
func (o *OpStats) emit(b *batch) { o.emitRows(b.live()) }

// emitRows records one emitted batch of n rows.
func (o *OpStats) emitRows(n int) {
	if o != nil {
		o.Batches++
		o.RowsOut += int64(n)
	}
}

// selectivity returns RowsOut/RowsIn, or -1 when input is untracked.
func (o *OpStats) selectivity() float64 {
	if o == nil || o.RowsIn == 0 {
		return -1
	}
	return float64(o.RowsOut) / float64(o.RowsIn)
}

// execCtx threads shared execution state through operator builders.
type execCtx struct {
	ctx   context.Context
	cat   Catalog
	snap  *store.SnapshotHandle // the statement's pinned snapshot: every scan reads its views
	opts  Options
	stats *ExecStats
	plan  []string // physical plan description lines (depth-first)
	// arena is the statement's scratch, lent by its engine for the run.
	arena *arena
	// hashCodes, when set, hashes every join's build side, coded keys
	// included (equiJoin.open). Tests set it to compare the code-indexed
	// build with the hashed one; production code leaves it false.
	hashCodes bool
}

// env builds a binding environment carrying the execution context (so
// uncorrelated subqueries run under the same cancellation scope and
// read the same pinned snapshot, and coded cells decode through its
// dictionary).
func (c *execCtx) env(schema *planSchema) bindEnv {
	return bindEnv{ctx: c.ctx, schema: schema, cat: c.cat, snap: c.snap, dict: c.dict(), tree: c.cat.Tree(), opts: c.opts}
}

// dict returns the dictionary the statement's coded columns decode
// through: its snapshot's.
func (c *execCtx) dict() *store.Dict { return c.snap.Dict() }

// view returns the statement's read view of a table: the pinned
// snapshot's. A table created after the pin is not in the snapshot, and
// reading it is the snapshot's error.
func (c *execCtx) view(name string) (*store.TableView, error) {
	return c.snap.View(name)
}

// note appends a plan line and allocates its per-operator counter
// slot (plan lines and ExecStats.Ops stay 1:1 so EXPLAIN ANALYZE can
// zip them back together).
func (c *execCtx) note(depth int, format string, args ...any) *OpStats {
	line := fmt.Sprintf(format, args...)
	c.plan = append(c.plan, strings.Repeat("  ", depth)+line)
	op := &OpStats{Name: line}
	c.stats.Ops = append(c.stats.Ops, op)
	return op
}

// --- Scans ---

// accessPath describes the chosen way into a table.
type accessPath struct {
	// "seqscan", "indexeq", "indexrange", or "joinkeys": a hash join's
	// probe scan keyed by the build side's distinct keys (probePath),
	// which the join supplies once it has hashed them.
	kind   string
	column string
	eq     store.Value
	lo, hi *store.Value
	loOpen bool // lo bound is exclusive (>)
	hiOpen bool // hi bound is exclusive (<)
	// rank, when set, makes an indexrange a walk of the column's rank
	// index built from that tree, [lo, hi] the clade's preorder interval.
	rank  *phylo.Tree
	clade string
	// indexrange under a TopK on the same column: the walk runs in sort
	// order and stops after limit qualifying rows (0: whole range).
	desc  bool
	limit int
	// residual predicates evaluated per row.
	residual []Expr
}

// keyedScanMaxShare prices a sequential scan against a join's keyed
// probe as 1/keyedScanMaxShare of the table: a row gathered by key costs
// 2–5 times a scanned one (EXPERIMENTS.md "Access paths"), and the
// conservative end is used.
const keyedScanMaxShare = 5

// without returns conjs minus the entries at the given positions.
func without(conjs []Expr, drop ...int) []Expr {
	out := make([]Expr, 0, len(conjs))
	for i, c := range conjs {
		keep := true
		for _, d := range drop {
			keep = keep && i != d
		}
		if keep {
			out = append(out, c)
		}
	}
	return out
}

// chooseAccessPath inspects pushed conjuncts and the table's indexes.
// Equality on an indexed column wins; otherwise the candidates are a
// B+-tree range and a clade's range by rank over a coded column, sized
// by counting the index postings each would visit (an index dive: exact,
// and never stale after a commit). The choice is made here, once, from
// the catalog alone.
func chooseAccessPath(n *ScanNode, t *store.Table, tree *phylo.Tree, useIndexes bool) accessPath {
	seq := accessPath{kind: "seqscan", residual: n.Conjuncts}
	if !useIndexes {
		return seq
	}
	for i, c := range n.Conjuncts {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != OpEq {
			continue
		}
		col, lit, _ := extractColLit(b)
		if col == nil || lit == nil {
			continue
		}
		if _, indexed := t.HasIndex(col.Name); !indexed {
			continue
		}
		return accessPath{kind: "indexeq", column: col.Name, eq: lit.Val, residual: without(n.Conjuncts, i)}
	}
	rank := chooseRank(n, t, tree)
	rng := chooseRange(n, t)
	// With both on offer — each gathers through an index at the same
	// cost per row — take the one that visits fewer postings.
	if rank.kind != "" {
		cost := t.CountPostings(rank.access(nil), 0)
		if rng.kind == "" || t.CountPostings(store.Access{Column: rng.column, Lo: rng.lo, Hi: rng.hi}, cost) > cost {
			return rank
		}
	}
	if rng.kind == "" {
		return seq
	}
	if k := n.topK; k != nil && k.column == rng.column {
		rng.desc, rng.limit = k.desc, k.limit
	}
	return rng
}

// chooseRank returns the range of a WITHIN_SUBTREE(strcol, clade)
// conjunct's preorder interval over strcol's codes in tree's ranking
// when strcol is coded and tree published the ranking (IndexByTree), or
// a zero path. The range is the conjunct exactly: a row's rank is the
// node bindVecSubtree resolves its cell to.
func chooseRank(n *ScanNode, t *store.Table, tree *phylo.Tree) accessPath {
	for i, c := range n.Conjuncts {
		x, ok := c.(*SubtreeExpr)
		if !ok || !t.RankedBy(x.Column.Name, tree) {
			continue
		}
		node, err := findTreeNode(tree, x.Node)
		if err != nil {
			continue
		}
		first, last := tree.SubtreeInterval(node)
		lo, hi := store.IntValue(int64(first)), store.IntValue(int64(last))
		return accessPath{kind: "indexrange", column: x.Column.Name, lo: &lo, hi: &hi, rank: tree, clade: x.Node, residual: without(n.Conjuncts, i)}
	}
	return accessPath{}
}

// IndexByTree publishes tree's ranking of names on db, which lets
// chooseRank serve WITHIN_SUBTREE on every coded column naming tree
// nodes: a name's rank is the preorder number of its node (the lowest of
// the nodes carrying it, as Tree.NodeByName resolves it; tree must be
// indexed and its clades named), and the ranking is tagged with tree.
func IndexByTree(db *store.DB, tree *phylo.Tree) {
	db.PublishRanks(tree, tree.Len(), func(r int) string { return tree.Name(phylo.NodeID(r)) })
}

// chooseRange collects range bounds on one B+-tree-indexed column, or
// returns a zero path.
func chooseRange(n *ScanNode, t *store.Table) accessPath {
	type bound struct {
		v    store.Value
		open bool
	}
	los := map[string]bound{}
	his := map[string]bound{}
	usable := map[string][]int{}
	for i, c := range n.Conjuncts {
		b, ok := c.(*BinaryExpr)
		if !ok {
			continue
		}
		col, lit, op := extractColLit(b)
		if col == nil || lit == nil {
			continue
		}
		if typ, indexed := t.HasIndex(col.Name); !indexed || typ != store.IndexBTree {
			continue
		}
		switch op {
		case OpGe:
			if cur, ok := los[col.Name]; !ok || store.Compare(lit.Val, cur.v) > 0 {
				los[col.Name] = bound{lit.Val, false}
			}
			usable[col.Name] = append(usable[col.Name], i)
		case OpGt:
			if cur, ok := los[col.Name]; !ok || store.Compare(lit.Val, cur.v) >= 0 {
				los[col.Name] = bound{lit.Val, true}
			}
			usable[col.Name] = append(usable[col.Name], i)
		case OpLe:
			if cur, ok := his[col.Name]; !ok || store.Compare(lit.Val, cur.v) < 0 {
				his[col.Name] = bound{lit.Val, false}
			}
			usable[col.Name] = append(usable[col.Name], i)
		case OpLt:
			if cur, ok := his[col.Name]; !ok || store.Compare(lit.Val, cur.v) <= 0 {
				his[col.Name] = bound{lit.Val, true}
			}
			usable[col.Name] = append(usable[col.Name], i)
		}
	}
	// Walk the bounded column whose range visits the fewest postings (an
	// index dive, as chooseAccessPath sizes paths; a lone candidate needs
	// none); a tie goes to the earlier column in the schema.
	var out accessPath
	best := 0
	for _, c := range t.Schema().Columns {
		if usable[c.Name] == nil {
			continue
		}
		p := accessPath{kind: "indexrange", column: c.Name}
		if b, ok := los[c.Name]; ok {
			v := b.v
			p.lo, p.loOpen = &v, b.open
		}
		if b, ok := his[c.Name]; ok {
			v := b.v
			p.hi, p.hiOpen = &v, b.open
		}
		if len(usable) > 1 {
			cost := t.CountPostings(store.Access{Column: c.Name, Lo: p.lo, Hi: p.hi}, best)
			if out.kind != "" && cost >= best {
				continue
			}
			best = cost
		}
		out = p
	}
	if out.kind == "" {
		return out
	}
	out.residual = without(n.Conjuncts, usable[out.column]...)
	// Exclusive bounds are re-checked as residuals (the index range
	// is inclusive).
	if out.loOpen || out.hiOpen {
		for _, i := range usable[out.column] {
			out.residual = append(out.residual, n.Conjuncts[i])
		}
	}
	return out
}

// describe renders the scan's plan line.
func (p accessPath) describe(n *ScanNode) string {
	var d string
	switch p.kind {
	case "indexeq":
		d = fmt.Sprintf("IndexScan %s (%s = %v)", n.Table, p.column, p.eq)
	case "indexrange":
		if p.rank != nil {
			d = fmt.Sprintf("IndexRangeScan %s (%s ∈ subtree %s → rank [%d, %d])", n.Table, p.column, p.clade, p.lo.I, p.hi.I)
			break
		}
		d = fmt.Sprintf("IndexRangeScan %s (%s in [%s, %s])", n.Table, p.column, boundStr(p.lo, "-∞"), boundStr(p.hi, "∞"))
		if p.limit > 0 {
			dir := "ASC"
			if p.desc {
				dir = "DESC"
			}
			d += fmt.Sprintf(" order=%s limit=%d", dir, p.limit)
		}
	case "joinkeys":
		d = fmt.Sprintf("IndexUnionScan %s (%s ∈ join keys)", n.Table, p.column)
	default:
		d = "SeqScan " + n.Table
	}
	return d + n.colsNote() + residualNote(p)
}

// access is the store access an index path hands Select, emitting the
// table columns cols; the caller attaches the residual. A sequential
// path's is a full pass.
func (p accessPath) access(cols []int) store.Access {
	a := store.Access{Column: p.column, Lo: p.lo, Hi: p.hi, Desc: p.desc, Limit: p.limit, Cols: cols}
	if p.kind == "indexeq" {
		a.Keys = []store.Value{p.eq}
	}
	if p.rank != nil {
		a.Rank = p.rank
	}
	return a
}

// probePath returns the path a one-key hash join reads its probe input
// by, when that input is a scan: through the index on the probe key,
// keyed by the build side's distinct keys — so a row that cannot join
// is never copied out — when that is estimated cheaper, and the scan's
// own chooseAccessPath otherwise. The keyed read is estimated at the
// build side's estimated rows (JoinNode.buildEst) times the key's
// fan-out (rows ÷ the distinct keys its index holds,
// store.Table.DistinctKeys), against what the scan's own path would
// visit: its exact posting count on an index path, or 1/keyedScanMaxShare
// of the table against a sequential scan. Every scan conjunct becomes
// the keyed read's residual. An INT build key may probe a FLOAT column
// (keys are widened); a FLOAT key never probes an INT one, whose B+-tree
// would miss the integers beyond 2^53 that round to it.
func probePath(j *JoinNode, buildKind store.Kind, probe *ScanNode, probeKey int, t *store.Table, ec *execCtx) accessPath {
	own := chooseAccessPath(probe, t, ec.cat.Tree(), ec.opts.UseIndexes)
	col := probe.schema.cols[probeKey]
	if !ec.opts.UseIndexes || j.buildEst <= 0 || (buildKind != col.Kind && (buildKind != store.KindInt || col.Kind != store.KindFloat)) {
		return own
	}
	ndv, indexed := t.DistinctKeys(col.Name)
	if !indexed {
		return own
	}
	keyed := j.buildEst * float64(t.Len()) / float64(max(ndv, 1))
	visits := t.Len() / keyedScanMaxShare
	if own.kind != "seqscan" {
		visits = t.CountPostings(own.access(nil), int(keyed)+1)
	}
	if keyed >= float64(visits) {
		return own
	}
	return accessPath{kind: "joinkeys", column: col.Name, residual: probe.Conjuncts}
}

func residualNote(p accessPath) string {
	if len(p.residual) == 0 {
		return ""
	}
	parts := make([]string, len(p.residual))
	for i, c := range p.residual {
		parts[i] = c.String()
	}
	return " filter: " + strings.Join(parts, " AND ")
}

// boundStr renders one end of an index range; open renders a missing
// end.
func boundStr(v *store.Value, open string) string {
	if v == nil {
		return open
	}
	return v.String()
}
