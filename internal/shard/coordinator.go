package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/replica"
	"drugtree/internal/store"
	"drugtree/internal/vfs"
)

// ErrShardUnavailable is the sentinel matched (via errors.Is) by the
// typed UnavailableError the coordinator returns when a query needs a
// shard whose every replica is down and Options.AllowPartial is off.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// UnavailableError reports which shards a query needed but could not
// reach. By default the coordinator refuses to answer with silently
// missing rows; callers that prefer degraded service opt in with
// Options.AllowPartial and read Result.SkippedShards instead.
type UnavailableError struct {
	Shards []int
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("shard: shards %v unavailable (every replica down); "+
		"enable AllowPartial to serve without their rows", e.Shards)
}

func (e *UnavailableError) Is(target error) bool { return target == ErrShardUnavailable }

// Shard is one partition instance: its own store (own WAL when
// durable), its own query engine over the shared tree, and its own
// admission limiter. With Options.Replicas > 0 the store is wrapped
// in a replica.Set (leader + followers) and reads route across it.
// failed simulates a crashed instance for the failover experiments: a
// failed shard is skipped by the scatter planner and surfaced as
// degraded health.
type Shard struct {
	id      int
	db      *store.DB // the original leader store; authoritative when set == nil
	set     *replica.Set
	engine  *query.Engine
	limiter *admission.Limiter
	failed  atomic.Bool
}

// DB exposes the shard's current leader store (writes and resync
// always go here; read-only use expected otherwise).
func (s *Shard) DB() *store.DB {
	if s.set != nil {
		return s.set.Leader()
	}
	return s.db
}

// Replicas exposes the shard's replica set (nil without replication).
func (s *Shard) Replicas() *replica.Set { return s.set }

// alive reports whether the shard can serve reads: not failed, and —
// when replicated — at least one replica live.
func (s *Shard) alive() bool {
	if s.failed.Load() {
		return false
	}
	if s.set != nil {
		return s.set.Live() > 0
	}
	return true
}

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

	// epoch counts topology transitions (FailShard/RestoreShard,
	// replica kill/restart, promotion). Result caches in front of the
	// coordinator fold it into their version so an entry filled
	// against one topology is never served against another — a full
	// COUNT cached before a shard failed must not mask the degraded
	// answer, nor the reverse, nor a pre-promotion answer after one.
	epoch atomic.Int64

	// policy selects which replica of a set answers reads (ReadAny
	// round-robin by default). Stored as int32 for lock-free reads on
	// the scatter path.
	policy atomic.Int32

	// tempDir is the auto-created durability root when replication was
	// requested over an in-memory topology; removed on Close.
	tempDir string

	// fsys is the filesystem seam inherited from the source store at
	// partition time; everything the coordinator persists or removes
	// goes through it.
	fsys vfs.FS
}

// SetReadPolicy switches how read subplans route across each shard's
// replica set. It does not change data, only placement, so it does
// not bump the topology epoch.
func (c *Coordinator) SetReadPolicy(p replica.ReadPolicy) { c.policy.Store(int32(p)) }

// ReadPolicy returns the current read routing policy.
func (c *Coordinator) ReadPolicy() replica.ReadPolicy {
	return replica.ReadPolicy(c.policy.Load())
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Shard returns the i-th shard.
func (c *Coordinator) Shard(i int) *Shard { return c.shards[i] }

// Close closes every shard store (and replica set), then removes the
// auto-created durability root if replication manufactured one.
func (c *Coordinator) Close() error {
	var first error
	for _, s := range c.shards {
		var err error
		if s.set != nil {
			err = s.set.Close()
		} else {
			err = s.db.Close()
		}
		if err != nil && first == nil {
			first = err
		}
	}
	if c.tempDir != "" {
		fsys := c.fsys
		if fsys == nil {
			fsys = vfs.OS()
		}
		if err := fsys.RemoveAll(c.tempDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FailShard marks a shard failed: the scatter planner skips it and
// Health reports it degraded. Queries keep being answered from the
// remaining healthy shards (with the failed partition's rows
// missing), the same degrade-don't-die stance the source layer takes
// when an upstream goes dark.
func (c *Coordinator) FailShard(i int) {
	c.shards[i].failed.Store(true)
	c.epoch.Add(1)
}

// RestoreShard clears a simulated failure.
func (c *Coordinator) RestoreShard(i int) {
	c.shards[i].failed.Store(false)
	c.epoch.Add(1)
}

// KillLeader crashes shard i's current leader. With replicas the
// followers keep serving reads (the shard stays available, read-only)
// until SyncReplicas promotes one; without replicas it degrades to
// FailShard. The replica set's topology callback bumps the epoch.
func (c *Coordinator) KillLeader(i int) {
	s := c.shards[i]
	if s.set == nil {
		c.FailShard(i)
		return
	}
	s.set.Kill(s.set.LeaderIndex())
}

// KillReplica crashes replica j of shard i.
func (c *Coordinator) KillReplica(i, j int) {
	if s := c.shards[i]; s.set != nil {
		s.set.Kill(j)
	}
}

// RestartReplica brings replica j of shard i back: it reopens from
// its durable state and catches up (tailing, or re-seeding if it was
// down across a promotion).
func (c *Coordinator) RestartReplica(ctx context.Context, i, j int) error {
	s := c.shards[i]
	if s.set == nil {
		return fmt.Errorf("shard %d has no replicas", i)
	}
	return s.set.Restart(ctx, j)
}

// SyncReplicas is one replication tick across every shard: a shard
// whose leader died gets the most-caught-up live follower promoted
// (tail replayed, epoch bumped so the statement cache invalidates),
// then every live leader ships its pending WAL tail to its followers.
// Shards with every replica down are skipped — they surface through
// Health and the unavailable-shard policy, not as a sync error.
func (c *Coordinator) SyncReplicas(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var first error
	for i, s := range c.shards {
		if s.set == nil {
			continue
		}
		if s.set.Live() == 0 {
			continue
		}
		if _, err := s.set.Promote(ctx); err != nil {
			if first == nil {
				first = fmt.Errorf("shard %d promote: %w", i, err)
			}
			continue
		}
		if err := s.set.Ship(ctx); err != nil {
			if first == nil {
				first = fmt.Errorf("shard %d ship: %w", i, err)
			}
		}
	}
	return first
}

// ScrubReplicas runs one scrub pass over every shard's replica set:
// each live follower's on-disk image is verified (snapshot envelope,
// checksums, WAL record CRCs) and any follower that fails is
// quarantined and re-seeded from its leader. It returns the number of
// followers healed. Shards without replication, or whose leader is
// down (nothing to re-seed from until a promotion), are skipped.
func (c *Coordinator) ScrubReplicas(ctx context.Context) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	healed := 0
	var first error
	for i, s := range c.shards {
		if err := ctx.Err(); err != nil {
			return healed, err
		}
		if s.set == nil {
			continue
		}
		n, err := s.set.Scrub()
		healed += n
		if err != nil && !errors.Is(err, replica.ErrLeaderDown) && first == nil {
			first = fmt.Errorf("shard %d scrub: %w", i, err)
		}
	}
	return healed, first
}

// MaxServedLag returns the largest replica lag any served read has
// observed across all shards — the empirical staleness bound the T12
// chaos run asserts against Options.MaxLagSeqs.
func (c *Coordinator) MaxServedLag() int64 {
	var max int64
	for _, s := range c.shards {
		if s.set == nil {
			continue
		}
		if l := s.set.MaxServedLag(); l > max {
			max = l
		}
	}
	return max
}

// Promotions returns the total leader promotions across all shards.
func (c *Coordinator) Promotions() int64 {
	var n int64
	for _, s := range c.shards {
		if s.set != nil {
			n += s.set.Promotions()
		}
	}
	return n
}

// LastPromotion reports the slowest promotion any shard's replica set
// has performed — its latency and the WAL tail records it replayed —
// or zeros when no leader has been promoted over. Experiments use it
// as the failover-cost measurement.
func (c *Coordinator) LastPromotion() (time.Duration, int64) {
	var lat time.Duration
	var replayed int64
	for _, s := range c.shards {
		if s.set == nil {
			continue
		}
		if l, r := s.set.LastPromotion(); l > lat || (l == lat && r > replayed) {
			lat, replayed = l, r
		}
	}
	return lat, replayed
}

// Insert routes one row write to the owning shard's leader: by the
// table's first partition key, or to every shard for replicated
// tables. It is the coordinator-level write path the chaos workload
// drives while leaders are being killed.
func (c *Coordinator) Insert(table string, r store.Row) (int64, error) {
	spec, ok := c.specs[table]
	if !ok || len(spec.keys) == 0 {
		var last int64
		for _, s := range c.shards {
			id, err := c.insertShard(s, table, r)
			if err != nil {
				return 0, err
			}
			last = id
		}
		return last, nil
	}
	tab, err := c.shards[0].DB().Table(table)
	if err != nil {
		return 0, err
	}
	ci := tab.Schema().ColumnIndex(spec.keys[0].column)
	if ci < 0 || ci >= len(r) {
		return 0, fmt.Errorf("shard: row lacks partition key %s.%s", table, spec.keys[0].column)
	}
	return c.insertShard(c.shards[spec.keys[0].part.Route(r[ci])], table, r)
}

func (c *Coordinator) insertShard(s *Shard, table string, r store.Row) (int64, error) {
	if s.set != nil {
		return s.set.Insert(table, r)
	}
	return s.db.Insert(table, r)
}

// Epoch returns the topology-transition counter: it changes whenever
// a shard fails or is restored, so cached results keyed on it are
// invalidated across topology changes.
func (c *Coordinator) Epoch() int64 { return c.epoch.Load() }

// Health is one shard's liveness and size snapshot.
type Health struct {
	Shard    int
	Status   string           // "ok", "degraded" (some replica down), or "failed"
	Rows     int64            // partitioned rows resident on the shard
	WALSeq   int64            // leader WAL frontier (0 for in-memory stores)
	Replicas []replica.Health // per-replica status (nil without replication)
}

// Health reports per-shard status for the serving layers (the mobile
// status message surfaces these next to source freshness).
func (c *Coordinator) Health() []Health {
	out := make([]Health, len(c.shards))
	for i, s := range c.shards {
		h := Health{Shard: i, Status: "ok"}
		if !s.alive() {
			h.Status = "failed"
		}
		if s.set != nil {
			h.Replicas = s.set.Health()
			h.WALSeq = s.set.Frontier()
			if h.Status == "ok" && s.set.Live() < s.set.Nodes() {
				h.Status = "degraded"
			}
		} else {
			h.WALSeq = s.db.WALSeq()
		}
		for name := range c.specs {
			if t, err := s.DB().Table(name); err == nil {
				h.Rows += int64(t.Len())
			}
		}
		out[i] = h
	}
	return out
}

// healthy returns the indexes of shards that can serve reads.
func (c *Coordinator) healthy() []int {
	var out []int
	for i, s := range c.shards {
		if s.alive() {
			out = append(out, i)
		}
	}
	return out
}

// deadShards returns the indexes of shards that cannot serve reads.
func (c *Coordinator) deadShards() []int {
	var out []int
	for i, s := range c.shards {
		if !s.alive() {
			out = append(out, i)
		}
	}
	return out
}

// Query parses, classifies, scatters, and merges one DTQL statement.
// ctx cancels mid-flight execution on every shard: the fan-out
// goroutines run shard engines that poll cancellation, and the
// gather unwinds with ctx.Err() without stranding a goroutine.
func (c *Coordinator) Query(ctx context.Context, src string) (*query.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
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
	pl, err := c.classify(stmt)
	if err != nil {
		return nil, err
	}
	if len(pl.skipped) > 0 && !c.opts.AllowPartial {
		// The answer would need rows from shards with every replica
		// down. Refuse rather than silently under-report; AllowPartial
		// opts into degraded answers annotated with SkippedShards.
		return nil, &UnavailableError{Shards: pl.skipped}
	}
	var res *query.Result
	if stmt.Explain {
		res, err = c.explain(ctx, stmt, pl)
	} else {
		switch pl.class {
		case classReplicated:
			res, err = c.runReplicated(ctx, stmt, pl)
		case classScatter:
			res, err = c.runScatter(ctx, stmt, pl)
		case classScatterOrdered:
			res, err = c.runScatterOrdered(ctx, stmt, pl)
		case classPartialAgg:
			res, err = c.runPartialAgg(ctx, stmt, pl)
		default:
			res, err = c.runFallback(ctx, stmt)
		}
	}
	if err != nil {
		return nil, err
	}
	if len(pl.skipped) > 0 {
		res.SkippedShards = append([]int(nil), pl.skipped...)
	}
	return res, nil
}

// routeEngine picks the engine that answers a read subplan on shard
// s: the replica router under the coordinator's read policy when the
// shard is replicated, the shard's single engine otherwise. ok is
// false when every replica of the shard is down.
func (c *Coordinator) routeEngine(s *Shard) (*query.Engine, bool) {
	if s.set == nil {
		return s.engine, true
	}
	eng, _, ok := s.set.Route(c.ReadPolicy())
	return eng, ok
}

// runStmt clones and executes one shard-local statement on a routed
// replica of s.
func (c *Coordinator) runStmt(ctx context.Context, s *Shard, stmt *query.SelectStmt) (*query.Result, error) {
	eng, ok := c.routeEngine(s)
	if !ok {
		return nil, &UnavailableError{Shards: []int{s.id}}
	}
	return eng.Run(ctx, cloneStmt(stmt))
}

// gatherHeader renders the scatter plan header. The skipped count is
// appended only when shards were actually skipped, keeping the
// common-case plan strings stable across the replication feature.
func gatherHeader(mode string, participate, pruned, skipped int) string {
	if skipped > 0 {
		return fmt.Sprintf("Gather [shards=%d pruned=%d skipped=%d mode=%s]", participate, pruned, skipped, mode)
	}
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
	}
	return st
}

// runReplicated answers a query touching only replicated tables from
// the first healthy shard; every other shard is pruned.
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
	out.Plan = gatherHeader("scatter", len(pl.participate), pl.pruned, len(pl.skipped))
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
	out.Plan = gatherHeader("scatter-ordered", len(pl.participate), pl.pruned, len(pl.skipped))
	return out, nil
}

// GatherTables copies the named tables out of the healthy shards
// into a fresh in-memory database: partitioned tables are unioned
// across shards, replicated ones taken from the first healthy shard,
// and secondary indexes recreated. It is the correctness fallback
// for statement shapes the scatter planner cannot merge soundly
// (subqueries, DISTINCT aggregates, non-co-partitioned joins) and a
// rebalancing primitive in its own right.
func (c *Coordinator) GatherTables(ctx context.Context, names []string) (*store.DB, error) {
	healthy := c.healthy()
	if len(healthy) == 0 {
		return nil, &UnavailableError{Shards: c.deadShards()}
	}
	db, err := store.Open("")
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		first, err := c.shards[healthy[0]].DB().Table(name)
		if err != nil {
			return nil, err
		}
		tab, err := db.CreateTable(name, first.Schema())
		if err != nil {
			return nil, err
		}
		from := healthy
		if len(c.specs[name].keys) == 0 {
			from = healthy[:1]
		}
		var rows []store.Row
		for _, si := range from {
			st, err := c.shards[si].DB().Table(name)
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
			len(c.healthy()), strings.Join(names, ","), indent(res.Plan))
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
		eng, ok := c.routeEngine(s)
		if !ok {
			return nil, &UnavailableError{Shards: []int{s.id}}
		}
		sub := cloneStmt(shardStmt)
		sub.Explain, sub.Analyze = true, stmt.Analyze
		return eng.Run(ctx, sub)
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
	b.WriteString(gatherHeader(pl.class.String(), len(pl.participate), pl.pruned, len(pl.skipped)))
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
