package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"drugtree/internal/integrate"
	"drugtree/internal/mobile"
	"drugtree/internal/netsim"
	"drugtree/internal/query"
	"drugtree/internal/shard"
	"drugtree/internal/store"
)

// Tracing. The engine has no span recorder of its own yet (ROADMAP
// item 4), so a traced run plays the server's steps itself: for every
// op it calls the same public functions Server.handleOpen/handleQuery
// call, in the same order, with a span around each. Spans stay in
// memory and are written to <out>/trace-<workload>.json at exit.
// End-to-end metrics never come from this pass; trace.overhead_pct
// reports how far its per-op time sits from the untraced rounds'.

// tracedRounds is how many untraced rounds a traced run measures for
// the counters and class medians it reports beside the spans.
const tracedRounds = 3

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Op     int    `json:"op"`     // op slot, -1 for probes outside the op list
}

type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost span, renaming it when the outcome decides
// the name (a cache hit or miss is known only after the call).
func (t *tracer) end(name string) time.Duration {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if name != "" {
		s.Name = name
	}
	return time.Duration(s.End - s.Start)
}

// layerTotals sums, per span name, the count, total time and self time
// (duration minus the part its child spans cover).
type layerTotal struct {
	n           int
	total, self time.Duration
}

func (t *tracer) totals() map[string]*layerTotal {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTotal{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.n++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

func (lt *layerTotal) mean() time.Duration {
	if lt == nil || lt.n == 0 {
		return 0
	}
	return lt.total / time.Duration(lt.n)
}

func (lt *layerTotal) sum() time.Duration {
	if lt == nil {
		return 0
	}
	return lt.total
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# trace: %d spans in %s\n", len(t.spans), path)
	return nil
}

// frame sends msg through the wire codec into a buffer and back, as
// one direction of the pipe would, with a span around each half.
func frame(tr *tracer, buf *bytes.Buffer, rd *bufio.Reader, msg any) error {
	buf.Reset()
	tr.begin("mobile.encode")
	err := mobile.WriteMsg(buf, msg)
	tr.end("")
	if err != nil {
		return fmt.Errorf("encode %T: %w", msg, err)
	}
	rd.Reset(buf)
	tr.begin("mobile.decode")
	_, _, err = mobile.ReadMsg(rd)
	tr.end("")
	if err != nil {
		return fmt.Errorf("decode %T: %w", msg, err)
	}
	return nil
}

// playTraced replays the op list once with the harness standing in for
// Server.dispatch. missLat records, per statement text, what
// Engine.Query took on its first (statement-cache miss) execution.
func (r *runner) playTraced(ctx context.Context, tr *tracer) (missLat map[string]time.Duration, err error) {
	eng := r.fx.eng
	eng.ResetSession()
	held := map[int64]bool{}
	var buf bytes.Buffer
	rd := bufio.NewReader(&buf)
	hits := eng.Metrics.Counter("query.stmt_cache_hits")
	missLat = map[string]time.Duration{}
	for i, o := range r.ops {
		tr.op = i
		var delta store.TableDelta
		if o.Kind == opCommit {
			if delta, err = r.churn.next(o.Rows); err != nil {
				return nil, err
			}
		}
		tr.begin("op")
		switch o.Kind {
		case opOpen:
			if err = frame(tr, &buf, rd, &mobile.Open{Node: o.Text}); err != nil {
				return nil, err
			}
			id, nerr := eng.NodeByName(o.Text)
			if nerr != nil {
				return nil, fmt.Errorf("traced open: %w", nerr)
			}
			tr.begin("core.open")
			_, cached, oerr := eng.OpenSubtree(ctx, o.Text)
			if cached {
				tr.end("core.open_hit")
			} else {
				tr.end("core.open_miss")
			}
			if oerr != nil {
				return nil, fmt.Errorf("traced open %s: %w", o.Text, oerr)
			}
			tr.begin("core.prefetch")
			eng.RunPrefetch(ctx)
			tr.end("")
			tr.begin("mobile.lod_build")
			nodes := mobile.BuildViewport(eng, id, lodBudget)
			tr.end("")
			tr.begin("mobile.lod_diff")
			add, remove := mobile.DiffViewports(held, nodes)
			tr.end("")
			for _, n := range add {
				held[n.Pre] = true
			}
			for _, pre := range remove {
				delete(held, pre)
			}
			if err = frame(tr, &buf, rd, &mobile.TreeDelta{Add: add, Remove: remove, Focus: int64(eng.Tree().Pre(id))}); err != nil {
				return nil, err
			}
		case opQuery:
			if err = frame(tr, &buf, rd, &mobile.Query{DTQL: o.Text}); err != nil {
				return nil, err
			}
			h0 := hits.Value()
			tr.begin("core.query")
			res, qerr := eng.Query(ctx, o.Text)
			if hits.Value() > h0 {
				tr.end("core.query_hit")
			} else if d := tr.end("core.query_miss"); missLat[o.Text] == 0 {
				missLat[o.Text] = d
			}
			if qerr != nil {
				return nil, fmt.Errorf("traced query %s: %w", o.Text, qerr)
			}
			if err = frame(tr, &buf, rd, &mobile.QueryResult{Columns: res.Columns, Rows: res.Rows}); err != nil {
				return nil, err
			}
		case opCommit:
			tr.begin("store.commit")
			cerr := r.fx.db.CommitDeltas([]store.TableDelta{delta})
			tr.end("")
			if cerr != nil {
				return nil, fmt.Errorf("traced commit: %w", cerr)
			}
		}
		tr.end("")
	}
	tr.op = -1
	return missLat, nil
}

// probeStatements picks up to n distinct statements, evenly spread over
// the op list so every class is represented. Browse sends no Query
// frames; its probes replay the tree_nodes range statement
// Engine.OpenSubtree issues for each region it entered.
func (r *runner) probeStatements(n int) []string {
	var all []string
	seen := map[string]bool{}
	t := r.fx.eng.Tree()
	for i, o := range r.ops {
		text := o.Text
		switch {
		case o.Kind == opOpen && r.fx.workload == wlBrowse:
			if i%browseSteps != 0 {
				continue
			}
			id, err := r.fx.eng.NodeByName(o.Text)
			if err != nil {
				continue
			}
			lo, hi := t.SubtreeInterval(id)
			text = fmt.Sprintf("SELECT pre, name, parent_pre, depth, is_leaf, branch_length, root_dist, leaf_count, x, y FROM tree_nodes WHERE pre BETWEEN %d AND %d", lo, hi)
		case o.Kind != opQuery:
			continue
		}
		if !seen[text] {
			seen[text] = true
			all = append(all, text)
		}
	}
	if len(all) <= n {
		return all
	}
	out := make([]string, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

// probeResult is what the layer probes measured outside the op list.
type probeResult struct {
	base         map[string]time.Duration // per statement: the engine-free cost Engine.Query's miss path is compared with
	rowsExamined int64
	rowsReturned int64
	rowsJoined   int64
	overlayPlans int
	stmts        int
	shardsHit    int64
	shardsPruned int64
}

var gatherRE = regexp.MustCompile(`Gather \[shards=(\d+) pruned=(\d+)`)

// probeQueries replays the probe statements through the query layer's
// public steps — Parse, PinSnapshot, BuildLogical+Optimize, RunAt — on
// a bare engine whose catalog carries the live overlay (so plans match
// the served ones), and through the coordinator when sharded.
func (r *runner) probeQueries(ctx context.Context, tr *tracer, n int) (*probeResult, error) {
	fx := r.fx
	cfg := engineConfig(fx.workload)
	cat := query.NewDBCatalog(fx.db, fx.eng.Tree())
	if ov := fx.eng.Overlay(); ov != nil {
		cat.OverlayAggs = ov
	}
	bare := query.NewEngine(cat, cfg.QueryOptions)
	pr := &probeResult{base: map[string]time.Duration{}}
	for _, text := range r.probeStatements(n) {
		tr.begin("query.parse")
		stmt, err := query.Parse(text)
		parse := tr.end("")
		if err != nil {
			return nil, fmt.Errorf("probe parse %s: %w", text, err)
		}
		tr.begin("query.plan")
		logical, err := query.BuildLogical(stmt, cat)
		if err == nil {
			_, err = query.Optimize(logical, cat, cfg.QueryOptions)
		}
		tr.end("")
		if err != nil {
			return nil, fmt.Errorf("probe plan %s: %w", text, err)
		}
		res, run, err := probeRun(ctx, tr, bare, fx.db, stmt)
		if err != nil {
			return nil, fmt.Errorf("probe run %s: %w", text, err)
		}
		pr.stmts++
		pr.rowsExamined += res.Stats.RowsScanned + res.Stats.RowsIndexed
		pr.rowsReturned += res.Stats.RowsReturned
		pr.rowsJoined += res.Stats.RowsJoined
		if strings.Contains(res.Plan, "OverlayRead") {
			pr.overlayPlans++
		}
		pr.base[text] = parse + run
	}
	// The coordinator gets its own pass, so a scatter never runs in
	// the wake of the single-node execution of the same statement.
	if coord := fx.eng.Coordinator(); coord != nil {
		for text := range pr.base {
			tr.begin("shard.query")
			sres, err := coord.Query(ctx, text)
			pr.base[text] = tr.end("")
			if err != nil {
				return nil, fmt.Errorf("probe shard query %s: %w", text, err)
			}
			for _, m := range gatherRE.FindAllStringSubmatch(sres.Plan, -1) {
				hit, _ := strconv.ParseInt(m[1], 10, 64)    // the pattern admits digits only
				pruned, _ := strconv.ParseInt(m[2], 10, 64) // as above
				pr.shardsHit += hit
				pr.shardsPruned += pruned
			}
		}
	}
	return pr, nil
}

// probeRun pins a snapshot and executes stmt at it, one span each.
func probeRun(ctx context.Context, tr *tracer, e *query.Engine, db *store.DB, stmt *query.SelectStmt) (*query.Result, time.Duration, error) {
	tr.begin("store.pin")
	snap := db.PinSnapshot()
	defer snap.Release()
	pin := tr.end("")
	tr.begin("query.run")
	res, err := e.RunAt(ctx, stmt, snap)
	run := tr.end("")
	return res, pin + run, err
}

// microbench times n calls of fn and returns the mean.
func microbench(n int, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(n), nil
}

// probeOverlayApply commits k deltas on the engine's store and the same
// inserts (with as many deletes) on a bare copy of activities that has
// the same indexes but no commit hook; the difference per changed row
// is what ActivityOverlay's OnCommit maintenance costs.
func (r *runner) probeOverlayApply(k int) (float64, error) {
	src, err := r.fx.db.Table(integrate.TableActivities)
	if err != nil {
		return 0, fmt.Errorf("overlay probe: %w", err)
	}
	bare, err := store.OpenWith("", engineConfig(r.fx.workload).StoreOptions())
	if err != nil {
		return 0, fmt.Errorf("overlay probe: %w", err)
	}
	defer bare.Close()
	bt, err := bare.CreateTable(integrate.TableActivities, src.Schema())
	if err != nil {
		return 0, fmt.Errorf("overlay probe: %w", err)
	}
	if err := bare.CommitDeltas([]store.TableDelta{{Table: integrate.TableActivities, Inserts: src.Snapshot()}}); err != nil {
		return 0, fmt.Errorf("overlay probe: %w", err)
	}
	for _, ix := range src.Indexes() {
		if err := bt.CreateIndex(ix.Column, ix.Type); err != nil {
			return 0, fmt.Errorf("overlay probe: %w", err)
		}
	}
	twin := *r.churn
	twin.db, twin.pool = bare, nil
	var withHook, without time.Duration
	for i := 0; i < k; i++ {
		d, err := r.churn.next(ingestCommitRows)
		if err != nil {
			return 0, err
		}
		d2, err := twin.next(ingestCommitRows)
		if err != nil {
			return 0, err
		}
		d2.Inserts = d.Inserts
		t0 := time.Now()
		if err := r.fx.db.CommitDeltas([]store.TableDelta{d}); err != nil {
			return 0, fmt.Errorf("overlay probe commit: %w", err)
		}
		withHook += time.Since(t0)
		t0 = time.Now()
		if err := bare.CommitDeltas([]store.TableDelta{d2}); err != nil {
			return 0, fmt.Errorf("overlay probe bare commit: %w", err)
		}
		without += time.Since(t0)
	}
	return us(withHook-without) / float64(k*2*ingestCommitRows), nil
}

// runTraced builds the fixture once, measures tracedRounds untraced
// rounds for the counters, plays the traced pass and the probes, and
// reduces everything to the per-layer metrics.
func runTraced(ctx context.Context, o options) (map[string]float64, int, int, error) {
	sz := sizeFor(o.seconds, o.short)
	rounds := tracedRounds
	if o.short {
		rounds = 1
	}
	fx, err := buildFixture(ctx, o.workload, o.short)
	if err != nil {
		return nil, 0, 0, err
	}
	r, err := newRunner(fx, sz, o.seed)
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("# load: closed loop, 1 client, %d slots/round, 1 check round + %d untraced rounds + 1 traced pass\n", len(r.ops), rounds)
	res, err := r.measure(ctx, rounds)
	if err != nil {
		return nil, 0, 0, err
	}
	res.setups = []setupTiming{fx.timing}
	tr := newTracer()
	missLat, err := r.playTraced(ctx, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	pr, err := r.probeQueries(ctx, tr, sz.probeStmts)
	if err != nil {
		return nil, 0, 0, err
	}
	m, err := r.layerMetrics(ctx, res, tr, pr, missLat)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := tr.write(o.outDir, o.workload); err != nil {
		return nil, 0, 0, err
	}
	printSelfTimes(tr)
	if err := fx.close(); err != nil {
		return nil, 0, 0, err
	}
	return m, res.attempted, res.failed, nil
}

// printSelfTimes lists each span name's share of the traced time.
func printSelfTimes(tr *tracer) {
	tot := tr.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return tot[names[i]].self > tot[names[j]].self })
	fmt.Println("# span                      count     total_ms      self_ms")
	for _, n := range names {
		fmt.Printf("# %-24s %7d %12.3f %12.3f\n", n, tot[n].n, ms(tot[n].total), ms(tot[n].self))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reduces the untraced rounds, the traced pass and the
// probes to the per-layer metric set.
func (r *runner) layerMetrics(ctx context.Context, res *runResult, tr *tracer, pr *probeResult, missLat map[string]time.Duration) (map[string]float64, error) {
	fx := r.fx
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	slots := float64(len(r.ops))
	nRounds := float64(len(res.rounds))
	tot := tr.totals()

	// Per-kind and per-class slot medians from the untraced rounds.
	// Every per-layer time is wall time as measured — spans cannot be
	// calibrated call by call — so the traced report is consistent in
	// itself; host.slowdown says how far it sits from the calibrated
	// end-to-end numbers.
	byKind := map[opKind][]time.Duration{}
	byClass := map[string][]time.Duration{}
	for i, o := range r.ops {
		byKind[o.Kind] = append(byKind[o.Kind], res.slotWall[i])
		byClass[o.Class] = append(byClass[o.Class], res.slotWall[i])
	}
	opens, commits := float64(len(byKind[opOpen])), float64(len(byKind[opCommit]))
	m["mobile.open_p50_ms"] = ms(percentileDur(byKind[opOpen], 0.5))
	m["mobile.query_p50_ms"] = ms(percentileDur(byKind[opQuery], 0.5))
	if fx.workload == wlAnalytics || fx.workload == wlSharded {
		for _, c := range queryClasses {
			m["query.class_"+c+"_ms"] = ms(percentileDur(byClass[c], 0.5))
		}
	}
	if commits > 0 {
		m["store.commit_ms"] = ms(meanDur(byKind[opCommit]))
		m["store.commit_us_per_row"] = us(meanDur(byKind[opCommit])) / (2 * ingestCommitRows)
	}

	// Counters of the last untraced round (deterministic per seed,
	// apart from GreedyDual-Size evictions, which weigh measured cost).
	last := res.rounds[len(res.rounds)-1]
	var up, down int64
	for i := range last.down {
		up += last.up[i]
		down += last.down[i]
	}
	m["mobile.bytes_down_per_op"] = float64(down) / slots
	m["mobile.bytes_up_per_op"] = float64(up) / slots
	m["mobile.delta_nodes_per_open"] = ratio(float64(last.deltaNodes), opens)
	m["core.prefetch_executed_per_open"] = ratio(float64(last.prefetched), opens)
	m["core.stmt_cache_hit_ratio"] = ratio(float64(last.stmtHits), float64(last.stmtHits+last.stmtMisses))
	m["cache.hit_ratio"] = ratio(float64(last.cache.Hits), float64(last.cache.Hits+last.cache.Misses))
	m["cache.subsumed_ratio"] = ratio(float64(last.cache.SubsumedHits), float64(last.cache.Hits))
	m["cache.evictions_per_kop"] = 1000 * float64(last.cache.Evictions) / slots
	m["cache.bytes_cached_mb"] = float64(last.cache.BytesCached) / 1e6
	m["admission.shed_ratio"] = ratio(float64(last.sheds), float64(len(byKind[opQuery])))
	m["store.dead_versions_after_round"] = float64(last.deadVersions)
	m["store.pinned_versions"] = float64(last.pinnedVersions)
	m["store.active_snapshots_at_rest"] = float64(last.activeSnapshots)
	m["store.heap_growth_mb"] = (float64(res.heapLive) - float64(res.heapStart)) / 1e6

	// The link a phone would add, from the measured frame sizes on
	// jitter-free, loss-free profiles (so the figure is a pure
	// function of the bytes).
	for name, prof := range map[string]netsim.Profile{"netsim.link3g_ms_per_op": netsim.Profile3G, "netsim.link4g_ms_per_op": netsim.Profile4G} {
		prof.Jitter, prof.LossPct = 0, 0
		link := netsim.NewLink(prof, 1, true)
		framed := 0
		for i, o := range r.ops {
			if o.Kind != opCommit {
				link.RequestCost(last.up[i], last.down[i])
				framed++
			}
		}
		m[name] = ratio(ms(link.Now()), float64(framed))
	}

	// Spans of the traced pass.
	m["mobile.lod_build_us"] = us(tot["mobile.lod_build"].mean())
	m["mobile.lod_diff_us"] = us(tot["mobile.lod_diff"].mean())
	m["mobile.encode_us_per_op"] = us(tot["mobile.encode"].sum()) / slots
	m["mobile.decode_us_per_op"] = us(tot["mobile.decode"].sum()) / slots
	m["core.open_hit_us"] = us(tot["core.open_hit"].mean())
	m["core.open_miss_ms"] = ms(tot["core.open_miss"].mean())
	m["core.prefetch_ms_per_open"] = ratio(ms(tot["core.prefetch"].sum()), opens)
	m["core.query_hit_us"] = us(tot["core.query_hit"].mean())
	if op := tot["op"]; op != nil && op.total > 0 {
		m["trace.unattributed_pct"] = 100 * float64(op.self) / float64(op.total)
		m["trace.overhead_pct"] = 100 * (float64(op.mean()) - float64(meanDur(res.slotWall))) / float64(meanDur(res.slotWall))
	}

	// Probes.
	m["query.parse_us"] = us(tot["query.parse"].mean())
	m["query.plan_us"] = us(tot["query.plan"].mean())
	// RunAt plans again before it executes; the plan probe's mean is
	// taken off to leave execution.
	m["query.exec_ms"] = ms(tot["query.run"].mean() - tot["query.plan"].mean())
	m["query.rows_examined_per_row_returned"] = ratio(float64(pr.rowsExamined), float64(pr.rowsReturned))
	m["query.rows_joined_per_op"] = ratio(float64(pr.rowsJoined), float64(pr.stmts))
	m["core.overlay_served_ratio"] = ratio(float64(pr.overlayPlans), float64(pr.stmts))
	// Engine.Query's miss path against the engine-free execution of
	// the same statement: the median of the per-statement differences,
	// each a difference of two single samples.
	var overheads []float64
	for text, base := range pr.base {
		if miss, ok := missLat[text]; ok {
			overheads = append(overheads, us(miss-base))
		}
	}
	if len(overheads) > 0 {
		m["core.query_miss_overhead_us"] = medianFloat(overheads)
	}
	if coord := fx.eng.Coordinator(); coord != nil {
		m["shard.query_ms"] = ms(tot["shard.query"].mean())
		m["shard.speedup_vs_single"] = ratio(float64(tot["query.run"].mean()), float64(tot["shard.query"].mean()))
		fmt.Printf("# shard.speedup_vs_single base: single-node RunAt mean %.3f ms over %d statements\n", ms(tot["query.run"].mean()), pr.stmts)
		m["shard.pruned_ratio"] = ratio(float64(pr.shardsPruned), float64(pr.shardsHit+pr.shardsPruned))
		cfg := engineConfig(fx.workload)
		h0 := forcedHeap()
		t0 := time.Now()
		extra, err := shard.Partition(fx.db, fx.eng.Tree(), shard.Options{Shards: cfg.Shards, QueryOptions: cfg.QueryOptions, Admission: cfg.Admission})
		if err != nil {
			return nil, fmt.Errorf("partition probe: %w", err)
		}
		m["shard.partition_s"] = time.Since(t0).Seconds()
		m["shard.heap_extra_mb"] = (float64(forcedHeap()) - float64(h0)) / 1e6
		if err := extra.Close(); err != nil {
			return nil, fmt.Errorf("partition probe: %w", err)
		}
	}

	// Fixed-cost microbenchmarks.
	const reps = 10000
	d, err := microbench(reps, func() error {
		release, err := fx.eng.Limiter().Acquire(ctx, 1)
		if err != nil {
			return fmt.Errorf("admission probe: %w", err)
		}
		release()
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["admission.acquire_us"] = us(d)
	d, _ = microbench(reps, func() error { // the closure cannot fail
		fx.db.PinSnapshot().Release()
		return nil
	})
	m["store.pin_us"] = us(d)
	scanTable := integrate.TableActivities
	if fx.workload == wlBrowse {
		scanTable = "tree_nodes"
	}
	tab, err := fx.db.Table(scanTable)
	if err != nil {
		return nil, fmt.Errorf("scan probe: %w", err)
	}
	rows := 0
	t0 := time.Now()
	tab.Scan(func(int64, store.Row) bool { rows++; return true })
	m["store.scan_ns_per_row"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(rows))

	// Runtime and the run's own noise reading.
	allocs := make([]float64, len(res.rounds))
	means := make([]float64, len(res.rounds))
	slows := make([]float64, len(res.rounds))
	var pooled []time.Duration
	var gcs uint32
	var pause time.Duration
	for i, st := range res.rounds {
		allocs[i] = float64(st.allocs) / slots
		means[i] = ms(meanDur(st.lat))
		slows[i] = st.slow
		pooled = append(pooled, st.lat...)
		gcs += st.gcs
		pause += st.pause
	}
	m["go.allocs_per_op"] = medianFloat(allocs)
	m["go.gc_cycles_per_kop"] = 1000 * float64(gcs) / (slots * nRounds)
	m["go.gc_pause_ms_total"] = ms(pause)
	m["e2e.raw_p99_ms"] = ms(percentileDur(pooled, 0.99))
	m["e2e.wall_op_mean_ms"] = ms(meanDur(res.slotWall))
	m["e2e.wall_op_p95_ms"] = ms(percentileDur(res.slotWall, 0.95))
	m["host.slowdown"] = medianFloat(slows)
	if len(means) >= 2 {
		q := quartiles(means)
		m["e2e.rounds_spread_pct"] = 100 * ratio(q[2]-q[0], q[1])
	}

	// Set-up stages.
	m["core.build_s"] = fx.timing.build.Seconds()
	m["integrate.import_s"] = fx.timing.imprt.Seconds()
	m["datagen.generate_s"] = fx.timing.generate.Seconds()

	// State-changing probes go last.
	if fx.workload == wlIngest {
		v, err := r.probeOverlayApply(16)
		if err != nil {
			return nil, err
		}
		m["core.overlay_apply_us_per_row"] = v
	}
	if fx.im != nil {
		const samples = 3
		syncs := make([]float64, samples)
		before := fx.bundle.TotalStats()
		for i := range syncs {
			t0 := time.Now()
			if _, err := fx.im.Sync(ctx); err != nil {
				return nil, fmt.Errorf("sync probe: %w", err)
			}
			syncs[i] = ms(time.Since(t0))
		}
		after := fx.bundle.TotalStats()
		m["integrate.sync_ms"] = medianFloat(syncs)
		m["source.requests_per_sync"] = float64(after.Requests-before.Requests) / samples
		m["source.rows_moved_per_sync"] = float64(after.RowsMoved-before.RowsMoved) / samples
	}
	return m, nil
}
