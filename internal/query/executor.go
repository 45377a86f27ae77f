package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// Result is the materialized output of one query.
type Result struct {
	// Columns are the output column names in SELECT order.
	Columns []string
	// Rows are the result rows.
	Rows []store.Row
	// Batch is the result as typed column vectors, set in place of Rows
	// by RunColumnsAt.
	Batch *store.ColBatch
	// Plan is the physical plan rendered as indented text.
	Plan string
	// Stats counts the work the execution performed.
	Stats ExecStats
}

// Engine executes DTQL against a catalog.
type Engine struct {
	cat  Catalog
	opts Options
}

// NewEngine creates an engine. Use DefaultOptions for the optimized
// engine, NaiveOptions for the experimental baseline.
func NewEngine(cat Catalog, opts Options) *Engine {
	return &Engine{cat: cat, opts: opts}
}

// Options returns the engine's optimizer options.
func (e *Engine) Options() Options { return e.opts }

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() Catalog { return e.cat }

// Query parses, plans, optimizes, and executes a DTQL string. For
// EXPLAIN statements the plan is produced but not executed. The
// context cancels mid-flight execution: scans, joins, aggregation,
// and sorts all poll it and unwind with ctx.Err() — the abandonment
// path a mobile client takes when it navigates away from a viewport
// whose query is still running.
func (e *Engine) Query(ctx context.Context, src string) (*Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, stmt)
}

// SnapshotCatalog is implemented by catalogs that can pin an MVCC
// snapshot of their backing store. Engines over such a catalog pin one
// snapshot per statement, so every scan — across tables and inside
// subqueries — reads the same consistent image even while writers
// commit concurrently.
type SnapshotCatalog interface {
	Catalog
	PinSnapshot() *store.SnapshotHandle
}

// Run executes a parsed statement under the given context. When the
// catalog supports snapshots, the whole statement runs against one
// pinned snapshot, released when execution finishes.
func (e *Engine) Run(ctx context.Context, stmt *SelectStmt) (*Result, error) {
	if sc, ok := e.cat.(SnapshotCatalog); ok {
		snap := sc.PinSnapshot()
		defer snap.Release()
		return e.RunAt(ctx, stmt, snap)
	}
	return e.RunAt(ctx, stmt, nil)
}

// RunAt executes a parsed statement against an already-pinned
// snapshot (nil runs unpinned, reading latest versions). Ownership of
// snap stays with the caller — RunAt never releases it — so a caller
// can run several statements, or statement-cache key computation plus
// the statement itself, against one frozen image.
func (e *Engine) RunAt(ctx context.Context, stmt *SelectStmt, snap *store.SnapshotHandle) (*Result, error) {
	return e.runAt(ctx, stmt, snap, false)
}

// RunColumnsAt is RunAt delivering Result.Batch instead of Result.Rows:
// the same plan and operators, but the result boundary concatenates
// the live batch cells into typed columns rather than boxing every row
// — for callers that keep or scan the result column-wise.
func (e *Engine) RunColumnsAt(ctx context.Context, stmt *SelectStmt, snap *store.SnapshotHandle) (*Result, error) {
	return e.runAt(ctx, stmt, snap, true)
}

func (e *Engine) runAt(ctx context.Context, stmt *SelectStmt, snap *store.SnapshotHandle, columnar bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	logical, err := BuildLogical(stmt, e.cat)
	if err != nil {
		return nil, err
	}
	optimized, err := Optimize(logical, e.cat, e.opts)
	if err != nil {
		return nil, err
	}
	cols := outputColumns(optimized)
	ec := &execCtx{ctx: ctx, cat: e.cat, snap: snap, opts: e.opts, stats: &ExecStats{}, para: e.opts.EffectiveParallelism()}
	root, err := build(optimized, ec, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Columns: cols,
		Plan:    strings.Join(ec.plan, "\n"),
		Stats:   ec.stats.Snapshot(),
	}
	if stmt.Explain && !stmt.Analyze {
		return res, nil
	}
	returned := 0
	if columnar {
		if res.Batch, err = drainColumns(ctx, root, optimized.Schema()); err != nil {
			return nil, err
		}
		returned = res.Batch.Rows
	} else {
		if res.Rows, err = drainRows(ctx, root); err != nil {
			return nil, err
		}
		returned = len(res.Rows)
	}
	atomic.StoreInt64(&ec.stats.RowsReturned, int64(returned))
	if stmt.Analyze {
		// EXPLAIN ANALYZE: the query ran to completion; render the
		// plan with per-operator execution counters and drop the rows
		// (the plan is the payload, as in EXPLAIN).
		res.Plan = annotatePlan(ec.plan, ec.stats.Ops)
		res.Rows, res.Batch = nil, nil
	}
	res.Stats = ec.stats.Snapshot()
	return res, nil
}

// annotatePlan appends each operator's runtime counters to its plan
// line: rows emitted, batches emitted, a hash join's input sizes (its
// plan line names the build side), and selectivity (rows out / rows in) where the operator
// saw input.
func annotatePlan(plan []string, ops []*OpStats) string {
	var b strings.Builder
	for i, line := range plan {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(line)
		if i < len(ops) && ops[i] != nil {
			op := ops[i]
			fmt.Fprintf(&b, " [rows=%d batches=%d", op.RowsOut, op.Batches)
			if op.Build != "" {
				fmt.Fprintf(&b, " build_rows=%d probe_rows=%d", op.BuildRows, op.RowsIn)
			}
			if s := op.selectivity(); s >= 0 {
				fmt.Fprintf(&b, " sel=%.1f%%", s*100)
			}
			b.WriteByte(']')
		}
	}
	return b.String()
}

// Clone returns a deep copy of the result: rows, columns, and
// per-operator stats share no storage with the receiver (a columnar
// Batch is shared, not copied). Callers that hand one Result to
// multiple consumers (the statement cache does) clone so a consumer
// mutating its rows cannot corrupt the others'.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := *r
	out.Columns = append([]string(nil), r.Columns...)
	if r.Rows != nil {
		out.Rows = make([]store.Row, len(r.Rows))
		for i, row := range r.Rows {
			out.Rows[i] = append(store.Row(nil), row...)
		}
	}
	if r.Stats.Ops != nil {
		out.Stats.Ops = make([]*OpStats, len(r.Stats.Ops))
		for i, op := range r.Stats.Ops {
			if op != nil {
				c := *op
				out.Stats.Ops[i] = &c
			}
		}
	}
	return &out
}

// OutputColumns returns the output column names stmt would produce,
// without executing it. The shard coordinator uses it to label merged
// scatter-gather results with exactly the names the single-node
// engine would emit (including the uniqueName _2-style dedup suffixes
// buildAggregate applies).
func OutputColumns(stmt *SelectStmt, cat Catalog) ([]string, error) {
	p, err := BuildLogical(stmt, cat)
	if err != nil {
		return nil, err
	}
	return outputColumns(p), nil
}

// outputColumns extracts the final column names of a plan.
func outputColumns(p LogicalPlan) []string {
	switch n := p.(type) {
	case *ProjectNode:
		return n.Names
	case *AggNode:
		return n.Names
	case *SortNode:
		return outputColumns(n.Input)
	case *LimitNode:
		return outputColumns(n.Input)
	case *FilterNode:
		return outputColumns(n.Input)
	}
	cols := p.Schema().cols
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

// FormatResult renders a result as an aligned text table (used by the
// CLI and examples).
func FormatResult(r *Result) string {
	if len(r.Columns) == 0 {
		return "(no columns)\n"
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			if v.K == store.KindString {
				s = v.S // unquoted for display
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(%d row(s))\n", len(r.Rows))
	return b.String()
}

// DBCatalog is a Catalog over a store.DB with version-checked cached
// statistics and an optional phylogenetic tree.
type DBCatalog struct {
	DB        *store.DB
	PhyloTree *phylo.Tree
	// OverlayAggs, when set, serves precomputed subtree aggregates to
	// the OverlayRead rewrite (see overlay.go).
	OverlayAggs SubtreeOverlay

	mu         sync.Mutex
	statsCache map[string]cachedStats
}

type cachedStats struct {
	stats   *store.TableStats
	version int64
}

// NewDBCatalog wires a catalog; tree may be nil for tables-only use.
func NewDBCatalog(db *store.DB, tree *phylo.Tree) *DBCatalog {
	return &DBCatalog{DB: db, PhyloTree: tree, statsCache: make(map[string]cachedStats)}
}

// Table implements Catalog.
func (c *DBCatalog) Table(name string) (*store.Table, error) { return c.DB.Table(name) }

// Stats implements Catalog, recomputing only when the table version
// changed since the cached snapshot.
func (c *DBCatalog) Stats(name string) (*store.TableStats, error) {
	t, err := c.DB.Table(name)
	if err != nil {
		return nil, err
	}
	v := t.Version()
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.statsCache[name]; ok && cached.version == v {
		return cached.stats, nil
	}
	st := t.Stats()
	c.statsCache[name] = cachedStats{stats: st, version: v}
	return st, nil
}

// Tree implements Catalog.
func (c *DBCatalog) Tree() *phylo.Tree { return c.PhyloTree }

// PinSnapshot implements SnapshotCatalog.
func (c *DBCatalog) PinSnapshot() *store.SnapshotHandle { return c.DB.PinSnapshot() }

// Overlay implements OverlayCatalog.
func (c *DBCatalog) Overlay() SubtreeOverlay { return c.OverlayAggs }

// TablesReferenced returns the distinct base-table names a statement
// reads, subqueries included, sorted. Statement caches use it to build
// per-table version keys: a cached result is reusable exactly when
// none of the tables it read have committed since.
func TablesReferenced(stmt *SelectStmt) []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	var walkStmt func(s *SelectStmt)
	walkStmt = func(s *SelectStmt) {
		if s == nil {
			return
		}
		add(s.From.Name)
		for _, j := range s.Joins {
			add(j.Table.Name)
		}
		exprs := []Expr{s.Where, s.Having}
		for _, it := range s.Items {
			if !it.Star {
				exprs = append(exprs, it.Expr)
			}
		}
		exprs = append(exprs, s.GroupBy...)
		for _, k := range s.Order {
			exprs = append(exprs, k.Expr)
		}
		for _, e := range exprs {
			if e == nil {
				continue
			}
			walkExpr(e, func(x Expr) {
				switch q := x.(type) {
				case *SubqueryExpr:
					walkStmt(q.Stmt)
				case *InSubqueryExpr:
					walkStmt(q.Stmt)
				}
			})
		}
	}
	walkStmt(stmt)
	sort.Strings(out)
	return out
}
