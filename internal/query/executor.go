package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// Result is the materialized output of one query.
type Result struct {
	// Columns are the output column names in SELECT order.
	Columns []string
	// Batch is the result as typed column vectors: what Run and RunAt
	// deliver (nil for EXPLAIN). Nothing writes it once they return, so
	// it may be shared read-only. A column read from a coded table column
	// holds its codes (KindCode), which Dict decodes.
	Batch *store.ColBatch
	// Dict is the dictionary Batch's coded columns decode through: the
	// statement's DB's, whose codes keep their meaning for the life of
	// the process.
	Dict *store.Dict
	// Rows is the result as rows, set in place of Batch only by the row
	// adapters Engine.Query and core.Engine.Query.
	Rows []store.Row
	// Plan is the physical plan rendered as indented text.
	Plan string
	// Stats counts the work the execution performed.
	Stats ExecStats
}

// Engine executes DTQL against a catalog.
type Engine struct {
	cat  Catalog
	opts Options
	// hashCodes is each statement's execCtx.hashCodes: tests only.
	hashCodes bool
	// mu guards idle, the arenas no running statement holds: at most
	// arenaIdle, the one a statement returned last at the end.
	mu   sync.Mutex
	idle []*arena
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

// newExecCtx starts one statement's execution state over its pinned
// snapshot, its scratch lent from a.
func (e *Engine) newExecCtx(ctx context.Context, snap *store.SnapshotHandle, a *arena) *execCtx {
	return &execCtx{ctx: ctx, cat: e.cat, snap: snap, opts: e.opts, stats: &ExecStats{}, arena: a, hashCodes: e.hashCodes}
}

// takeArena lends a running statement an idle arena, or a new one.
func (e *Engine) takeArena() *arena {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.idle)
	if n == 0 {
		return &arena{}
	}
	a := e.idle[n-1]
	e.idle[n-1], e.idle = nil, e.idle[:n-1]
	return a
}

// putArena takes a back from a statement that has ended, its loans
// returned, keeping it idle unless arenaIdle arenas already are.
func (e *Engine) putArena(a *arena) {
	a.release()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.idle) < arenaIdle {
		e.idle = append(e.idle, a)
	}
}

// Executor memory. A statement's scratch — the slot list each scan
// selects into, and each hash join's chain arrays and match vectors —
// is dead before its reply leaves, and the next statement needs buffers
// of the same shapes. So the engine lends each running statement an
// arena (RunAt takes it and gives it back on every exit path), and the
// buffers are allocated once per engine, not once per statement. The
// bounds are constants: what an engine keeps at rest is a few buffers
// of at most arenaMaxLen elements in each of at most arenaIdle arenas.
const (
	// arenaIdle is how many idle arenas an engine keeps: a statement
	// that ends when that many are idle drops its own.
	arenaIdle = 8
	// arenaInt32s and arenaInts are how many idle buffers of each
	// element type an arena keeps: its largest. A statement with two
	// joins holds six int32 buffers and two int ones.
	arenaInt32s = 8
	arenaInts   = 4
	// arenaMaxLen caps a kept buffer: a longer one, and a longer slot
	// list, is dropped when it comes back, as before there were arenas.
	arenaMaxLen = 16 << 10
)

// arena is one running statement's reusable scratch, used by that
// statement's goroutine alone. A scan borrows the slot list (slotList)
// and gives it back once its last Fill has returned (giveSlots); a join
// borrows its head/next chain arrays and its prober's pi/bi match
// vectors for the rest of the statement (int32s, ints), and release
// takes those back when RunAt exits.
//
// Nothing an arena hands out is ever a batch column: a slot list is only
// read by Fill, and chain arrays and match vectors only index rows whose
// cells are copied into fresh columns. So drainColumns' whole-vector
// adoption, the statement cache and a Result never alias arena memory,
// and a buffer reused by the next statement changes no answer already
// given.
type arena struct {
	slots    []int32   // the idle slot list, nil while a scan holds it
	free32   [][]int32 // idle int32 buffers, at most arenaInt32s
	freeInts [][]int   // idle int buffers, at most arenaInts
	// lent32 and lentInts point at the fields holding the statement-long
	// loans, read again at release: an append may have moved a loan.
	lent32   []*[]int32
	lentInts []*[]int
}

// slotList takes the idle slot list for a scan's Select: nil when there
// is none.
func (a *arena) slotList() []int32 {
	s := a.slots
	a.slots = nil
	return s
}

// giveSlots takes a scan's slot list back — the Selection's Slots,
// which Select may have grown past the list it was lent — keeping the
// larger of it and any list already idle.
func (a *arena) giveSlots(s []int32) {
	poisonScratch(s)
	if cap(s) <= arenaMaxLen && cap(s) > cap(a.slots) {
		a.slots = s[:0]
	}
}

// int32s points *p at n int32s, their contents unspecified, lent until
// the statement ends.
func (a *arena) int32s(p *[]int32, n int) {
	*p, a.free32 = fit(a.free32, n)
	a.lent32 = append(a.lent32, p)
}

// ints is int32s for ints.
func (a *arena) ints(p *[]int, n int) {
	*p, a.freeInts = fit(a.freeInts, n)
	a.lentInts = append(a.lentInts, p)
}

// release takes back every statement-long loan, as the fields lent it
// hold it now, and clears those fields.
func (a *arena) release() {
	for i, p := range a.lent32 {
		poisonScratch(*p)
		a.free32 = keep(a.free32, *p, arenaInt32s)
		*p, a.lent32[i] = nil, nil
	}
	for i, p := range a.lentInts {
		poisonScratch(*p)
		a.freeInts = keep(a.freeInts, *p, arenaInts)
		*p, a.lentInts[i] = nil, nil
	}
	a.lent32, a.lentInts = a.lent32[:0], a.lentInts[:0]
}

// arenaPoison, which this package's tests set, makes an arena overwrite
// every buffer given back to it with −1, so scratch read after it was
// given back fails loudly rather than reading what the next borrower
// wrote.
var arenaPoison bool

// poisonScratch overwrites buf, to its capacity, with −1 when
// arenaPoison is set.
func poisonScratch[T int | int32](buf []T) {
	if arenaPoison {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = -1
		}
	}
}

// fit takes the smallest buffer of free that holds n elements, or makes
// one, and returns it at length n and what free keeps.
func fit[T int | int32](free [][]T, n int) ([]T, [][]T) {
	best := -1
	for i, b := range free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, n), free
	}
	buf, last := free[best][:n], len(free)-1
	free[best], free[last] = free[last], nil
	return buf, free[:last]
}

// keep files buf among free, which holds at most max buffers, keeping
// the largest; an empty buffer, or one longer than arenaMaxLen, is
// dropped.
func keep[T int | int32](free [][]T, buf []T, max int) [][]T {
	if c := cap(buf); c == 0 || c > arenaMaxLen {
		return free
	}
	if len(free) < max {
		return append(free, buf[:0])
	}
	small := 0
	for i, b := range free {
		if cap(b) < cap(free[small]) {
			small = i
		}
	}
	if cap(buf) > cap(free[small]) {
		free[small] = buf[:0]
	}
	return free
}

// Query is the row adapter: it parses src, runs it, and returns the
// answer as Rows (store.RowsFromColBatch of the Batch Run delivers, its
// names decoded) with Batch nil. Nothing in the module outside tests
// calls it; it stays for the repository benchmark's single-node oracle,
// whose checks read Result.Rows.
func (e *Engine) Query(ctx context.Context, src string) (*Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(ctx, stmt)
	if err != nil {
		return nil, err
	}
	res.Rows, res.Batch = store.RowsFromColBatch(res.Batch, res.Dict), nil
	return res, nil
}

// Run executes a parsed statement under the given context and delivers
// Result.Batch; for EXPLAIN the plan is produced but not executed. The
// context cancels mid-flight execution: scans, joins, aggregation, and
// sorts all poll it and unwind with ctx.Err() — the abandonment path a
// mobile client takes when it navigates away from a viewport whose
// query is still running. The whole statement runs against one snapshot
// pinned from the catalog, released when execution finishes.
func (e *Engine) Run(ctx context.Context, stmt *SelectStmt) (*Result, error) {
	snap := e.cat.PinSnapshot()
	defer snap.Release()
	return e.RunAt(ctx, stmt, snap)
}

// RunAt executes a parsed statement against an already-pinned snapshot,
// which every scan — across tables and inside subqueries — reads, so the
// statement sees one consistent image while writers commit. Ownership
// of snap stays with the caller — RunAt never releases it — so a caller
// can run several statements, or statement-cache key computation plus
// the statement itself, against one frozen image. A nil snap is an
// error: no statement reads unpinned.
func (e *Engine) RunAt(ctx context.Context, stmt *SelectStmt, snap *store.SnapshotHandle) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("query: statement run with no pinned snapshot")
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
	a := e.takeArena()
	defer e.putArena(a)
	ec := e.newExecCtx(ctx, snap, a)
	root, err := build(optimized, ec, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Columns: cols,
		Dict:    snap.Dict(),
		Plan:    strings.Join(ec.plan, "\n"),
		Stats:   *ec.stats,
	}
	if stmt.Explain && !stmt.Analyze {
		return res, nil
	}
	if res.Batch, err = drainColumns(ctx, root, optimized.Schema()); err != nil {
		return nil, err
	}
	ec.stats.RowsReturned = int64(res.Batch.Rows)
	if stmt.Analyze {
		// EXPLAIN ANALYZE: the query ran to completion; render the
		// plan with per-operator execution counters and drop the rows
		// (the plan is the payload, as in EXPLAIN).
		res.Plan = annotatePlan(ec.plan, ec.stats.Ops)
		res.Batch = nil
	}
	res.Stats = *ec.stats
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

// FormatResult renders a result's Batch as an aligned text table (used
// by the CLI and examples), names decoded.
func FormatResult(r *Result) string {
	if len(r.Columns) == 0 {
		return "(no columns)\n"
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	var cols []store.Col
	n := 0
	if r.Batch != nil {
		cols, n = r.Batch.Cols, r.Batch.Rows
	}
	cells := make([][]string, n)
	for ri := range cells {
		cells[ri] = make([]string, len(cols))
		for ci := range cols {
			v := r.Dict.Value(&cols[ci], ri)
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
	fmt.Fprintf(&b, "(%d row(s))\n", n)
	return b.String()
}

// DBCatalog is a Catalog over a store.DB and an optional phylogenetic
// tree. It keeps no statistics: the planner sizes scans and joins from
// the tables' indexes (Table.CountPostings, Table.DistinctKeys), which
// are never stale after a commit.
type DBCatalog struct {
	DB        *store.DB
	PhyloTree *phylo.Tree
	// OverlayAggs, when set, serves precomputed subtree aggregates to
	// the OverlayRead rewrite (see overlay.go).
	OverlayAggs SubtreeOverlay
}

// NewDBCatalog wires a catalog; tree may be nil for tables-only use.
func NewDBCatalog(db *store.DB, tree *phylo.Tree) *DBCatalog {
	return &DBCatalog{DB: db, PhyloTree: tree}
}

// Table implements Catalog.
func (c *DBCatalog) Table(name string) (*store.Table, error) { return c.DB.Table(name) }

// Tree implements Catalog.
func (c *DBCatalog) Tree() *phylo.Tree { return c.PhyloTree }

// PinSnapshot implements Catalog.
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
