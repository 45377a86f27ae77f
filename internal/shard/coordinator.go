package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"drugtree/internal/admission"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// Shard is one partition instance: its own in-memory store, its own
// query engine over the shared tree, and its own admission limiter.
type Shard struct {
	id      int
	db      *store.DB
	engine  *query.Engine
	limiter *admission.Limiter
}

// DB exposes the shard's store (read-only use expected).
func (s *Shard) DB() *store.DB { return s.db }

// Limiter exposes the shard's admission limiter (nil when admission
// is unconfigured).
func (s *Shard) Limiter() *admission.Limiter { return s.limiter }

// Coordinator plans a DTQL statement once, classifies it, prunes
// shards by partition-key predicates, fans the per-shard statements
// out over the shard engines, and merges the gathered results.
type Coordinator struct {
	shards []*Shard
	tree   *phylo.Tree
	opts   Options
	specs  map[string]tableSpec

	// gateHook, when set, runs inside every scatter goroutine before
	// the shard statement executes. Tests use it to make one shard
	// slow (blocking on ctx) so cancellation and leak behavior of a
	// mid-flight gather is deterministic.
	gateHook func(ctx context.Context, shard int) error
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Shard returns the i-th shard.
func (c *Coordinator) Shard(i int) *Shard { return c.shards[i] }

// Close closes every shard store.
func (c *Coordinator) Close() error {
	var first error
	for _, s := range c.shards {
		if err := s.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Query parses, classifies, scatters, and merges one DTQL statement.
// ctx cancels mid-flight execution on every shard: the fan-out
// goroutines run shard engines that poll cancellation, and the
// gather unwinds with ctx.Err() without stranding a goroutine.
func (c *Coordinator) Query(ctx context.Context, src string) (*query.Result, error) {
	stmt, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx, stmt)
}

// Run executes a parsed statement through the scatter-gather planner.
func (c *Coordinator) Run(ctx context.Context, stmt *query.SelectStmt) (*query.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pl := c.classify(stmt)
	if stmt.Explain {
		return c.explain(ctx, stmt, pl)
	}
	switch pl.class {
	case classReplicated:
		return c.runReplicated(ctx, stmt, pl)
	case classScatter:
		return c.runScatter(ctx, stmt, pl)
	case classScatterOrdered:
		return c.runScatterOrdered(ctx, stmt, pl)
	case classPartialAgg:
		return c.runPartialAgg(ctx, stmt, pl)
	default:
		return c.runFallback(ctx, stmt)
	}
}

// runStmt clones and executes one shard-local statement on s.
func (c *Coordinator) runStmt(ctx context.Context, s *Shard, stmt *query.SelectStmt) (*query.Result, error) {
	return s.engine.Run(ctx, cloneStmt(stmt))
}

// gatherHeader renders the scatter plan header.
func gatherHeader(mode string, participate, pruned int) string {
	return fmt.Sprintf("Gather [shards=%d pruned=%d mode=%s]", participate, pruned, mode)
}

// scatter fans run out over the given shards, one goroutine per
// shard, joined before returning. The first shard error (in shard
// order, preferring root causes over cancellation echoes) cancels
// the siblings and is returned.
func (c *Coordinator) scatter(parent context.Context, ids []int, run func(ctx context.Context, s *Shard) (*query.Result, error)) ([]*query.Result, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	results := make([]*query.Result, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			if c.gateHook != nil {
				if err := c.gateHook(ctx, s.id); err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
			results[i], errs[i] = c.runOne(ctx, s, run)
			if errs[i] != nil {
				cancel()
			}
		}(i, c.shards[id])
	}
	wg.Wait()
	if err := parent.Err(); err != nil {
		return nil, err
	}
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// runOne executes one shard statement under the shard's admission
// limiter.
func (c *Coordinator) runOne(ctx context.Context, s *Shard, run func(ctx context.Context, s *Shard) (*query.Result, error)) (*query.Result, error) {
	if s.limiter != nil {
		release, err := s.limiter.Acquire(ctx, 1)
		if err != nil {
			return nil, fmt.Errorf("shard %d admission: %w", s.id, err)
		}
		defer release()
	}
	return run(ctx, s)
}

// mergeStats sums the work counters of the gathered partial results.
func mergeStats(results []*query.Result) query.ExecStats {
	var st query.ExecStats
	for _, r := range results {
		if r == nil {
			continue
		}
		st.RowsScanned += r.Stats.RowsScanned
		st.RowsIndexed += r.Stats.RowsIndexed
		st.RowsJoined += r.Stats.RowsJoined
		st.RowsFilled += r.Stats.RowsFilled
	}
	return st
}

// runReplicated answers a query touching only replicated tables from
// one shard; every other shard is pruned.
func (c *Coordinator) runReplicated(ctx context.Context, stmt *query.SelectStmt, pl *plan) (*query.Result, error) {
	s := c.shards[pl.participate[0]]
	return c.runOne(ctx, s, func(ctx context.Context, s *Shard) (*query.Result, error) {
		return c.runStmt(ctx, s, stmt)
	})
}

// runScatter executes the statement as-is on every participating
// shard and concatenates the row sets (truncated to LIMIT when one
// is present — each shard already applied it locally).
//
// Merge contract: the result is the same row *multiset* as
// single-node execution, in shard-concatenation order rather than
// table order. With a LIMIT (and no ORDER BY — that is
// scatter-ordered), DTQL's unordered LIMIT means "any N qualifying
// rows", so the kept subset may differ from single-node's; the
// differential tests check count + membership for that shape, not
// row identity.
func (c *Coordinator) runScatter(ctx context.Context, stmt *query.SelectStmt, pl *plan) (*query.Result, error) {
	results, err := c.scatter(ctx, pl.participate, func(ctx context.Context, s *Shard) (*query.Result, error) {
		return c.runStmt(ctx, s, stmt)
	})
	if err != nil {
		return nil, err
	}
	out := &query.Result{Columns: results[0].Columns, Stats: mergeStats(results)}
	for _, r := range results {
		out.Rows = append(out.Rows, r.Rows...)
	}
	if stmt.Limit >= 0 && len(out.Rows) > stmt.Limit {
		out.Rows = out.Rows[:stmt.Limit]
	}
	out.Stats.RowsReturned = int64(len(out.Rows))
	out.Plan = gatherHeader("scatter", len(pl.participate), pl.pruned)
	return out, nil
}

// runScatterOrdered pushes ORDER BY + LIMIT to every shard (each
// returns its local top-k with the sort-key columns exposed), then
// top-k-merges the partials: a global stable sort over the key
// columns, the global LIMIT, and the hidden keys stripped.
//
// Merge contract: the sort-key sequence is identical to single-node
// execution; the relative order *within* a tie group is unspecified
// (the stable sort preserves shard-concatenation order, single-node
// preserves table order), and when a LIMIT cuts through a tie group,
// which of the tied rows survive may differ per topology — the same
// latitude SQL gives any executor for an under-specified ORDER BY.
func (c *Coordinator) runScatterOrdered(ctx context.Context, stmt *query.SelectStmt, pl *plan) (*query.Result, error) {
	shardStmt := pl.shardStmt
	results, err := c.scatter(ctx, pl.participate, func(ctx context.Context, s *Shard) (*query.Result, error) {
		return c.runStmt(ctx, s, shardStmt)
	})
	if err != nil {
		return nil, err
	}
	out := &query.Result{Stats: mergeStats(results)}
	baseLen := len(results[0].Columns) - pl.hiddenKeys
	out.Columns = append([]string(nil), results[0].Columns[:baseLen]...)
	var rows []store.Row
	for _, r := range results {
		rows = append(rows, r.Rows...)
	}
	keys := pl.mergeKeys
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			cmp := store.Compare(rows[i][k.pos], rows[j][k.pos])
			if k.desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	if stmt.Limit >= 0 && len(rows) > stmt.Limit {
		rows = rows[:stmt.Limit]
	}
	for i := range rows {
		rows[i] = rows[i][:baseLen]
	}
	out.Rows = rows
	out.Stats.RowsReturned = int64(len(out.Rows))
	out.Plan = gatherHeader("scatter-ordered", len(pl.participate), pl.pruned)
	return out, nil
}

// GatherTables copies the named tables out of the shards into a fresh
// in-memory database: partitioned tables are unioned across shards,
// replicated ones taken from the first shard,
// and secondary indexes recreated. It is the correctness fallback
// for statement shapes the scatter planner cannot merge soundly
// (subqueries, DISTINCT aggregates, non-co-partitioned joins) and a
// rebalancing primitive in its own right.
func (c *Coordinator) GatherTables(ctx context.Context, names []string) (*store.DB, error) {
	db, err := store.Open("")
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		first, err := c.shards[0].db.Table(name)
		if err != nil {
			return nil, err
		}
		tab, err := db.CreateTable(name, first.Schema())
		if err != nil {
			return nil, err
		}
		from := c.shards
		if len(c.specs[name].keys) == 0 {
			from = from[:1]
		}
		var rows []store.Row
		for _, s := range from {
			st, err := s.db.Table(name)
			if err != nil {
				return nil, err
			}
			rows = append(rows, st.Snapshot()...)
		}
		if err := db.CommitDeltas([]store.TableDelta{{Table: name, Inserts: rows}}); err != nil {
			return nil, err
		}
		for _, ix := range first.Indexes() {
			if err := tab.CreateIndex(ix.Column, ix.Type); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// runFallback gathers every referenced table into a temporary
// database and runs the original statement on a local engine —
// reproducing single-node behavior (including its errors) exactly,
// at the cost of moving the data to the query.
func (c *Coordinator) runFallback(ctx context.Context, stmt *query.SelectStmt) (*query.Result, error) {
	names := referencedTables(stmt)
	db, err := c.GatherTables(ctx, names)
	if err != nil {
		return nil, err
	}
	eng := query.NewEngine(query.NewDBCatalog(db, c.tree), c.opts.QueryOptions)
	res, err := eng.Run(ctx, cloneStmt(stmt))
	if err != nil {
		return nil, err
	}
	if stmt.Explain {
		res.Plan = fmt.Sprintf("Gather [shards=%d pruned=0 mode=gather-fallback tables=%s]\n%s",
			len(c.shards), strings.Join(names, ","), indent(res.Plan))
	}
	return res, nil
}

// explain renders the scatter plan: the gather header with shard and
// pruning counts, then each participating shard's plan — annotated
// with per-operator rows/batches counters under EXPLAIN ANALYZE,
// which executes the shard statements in full.
func (c *Coordinator) explain(ctx context.Context, stmt *query.SelectStmt, pl *plan) (*query.Result, error) {
	if pl.class == classFallback {
		return c.runFallback(ctx, stmt)
	}
	shardStmt := stmt
	switch pl.class {
	case classScatterOrdered:
		shardStmt = pl.shardStmt
	case classPartialAgg:
		shardStmt = pl.agg.shardStmt
	}
	run := func(ctx context.Context, s *Shard) (*query.Result, error) {
		sub := cloneStmt(shardStmt)
		sub.Explain, sub.Analyze = true, stmt.Analyze
		return s.engine.Run(ctx, sub)
	}
	var results []*query.Result
	var err error
	if stmt.Analyze {
		results, err = c.scatter(ctx, pl.participate, run)
	} else {
		// Plain EXPLAIN never executes; plan each shard serially.
		for _, id := range pl.participate {
			r, rerr := c.runOne(ctx, c.shards[id], run)
			if rerr != nil {
				err = rerr
				break
			}
			results = append(results, r)
		}
	}
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString(gatherHeader(pl.class.String(), len(pl.participate), pl.pruned))
	for i, r := range results {
		fmt.Fprintf(&b, "\nshard %d:\n%s", pl.participate[i], indent(r.Plan))
	}
	out := &query.Result{Columns: results[0].Columns, Plan: b.String(), Stats: mergeStats(results)}
	return out, nil
}

// indent shifts every line of s right by two spaces.
func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n")
}
