// Package core is the DrugTree engine: it builds the
// protein-motivated phylogenetic tree, overlays ligand activity data
// on it, and answers interactive queries through the optimizing DTQL
// engine with the semantic cache and prefetcher in front — the system
// the poster describes.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/bio/align"
	"drugtree/internal/bio/seq"
	"drugtree/internal/cache"
	"drugtree/internal/integrate"
	"drugtree/internal/metrics"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/shard"
	"drugtree/internal/store"
)

// TreeMethod selects how the phylogeny is built from sequences.
type TreeMethod string

const (
	// TreeNJAlign builds an NJ tree over alignment distances
	// (accurate; O(n²) alignments).
	TreeNJAlign TreeMethod = "nj-align"
	// TreeNJKmer builds an NJ tree over alignment-free k-mer cosine
	// distances (fast; the default above a few hundred proteins).
	TreeNJKmer TreeMethod = "nj-kmer"
)

// kmerK is the k-mer length for alignment-free distances.
const kmerK = 4

// Config tunes the engine.
type Config struct {
	// Method selects tree construction (default TreeNJAlign under
	// 300 proteins, TreeNJKmer above).
	Method TreeMethod
	// QueryOptions configures the DTQL optimizer (default: all on).
	QueryOptions query.Options
	// CacheBytes bounds the semantic cache (default 8 MiB; 0
	// disables caching).
	CacheBytes int64
	// CacheExactOnly disables cache range subsumption (ablation).
	CacheExactOnly bool
	// QueryCacheEntries enables the statement-level result cache with
	// the given LRU capacity; 0 (the default) disables it. QueryColumns
	// returns a cached result by pointer, read-only; Query copies it
	// out. Opt-in because repeated
	// identical statements short-circuit the optimizer and executor
	// entirely, which would invalidate latency experiments that rerun
	// one query (the server enables it; see experiment T6).
	QueryCacheEntries int
	// EnablePrefetch turns on navigation prefetching: RunPrefetch
	// warms the semantic cache for later OpenSubtree calls.
	EnablePrefetch bool
	// Admission, when set, gates Query behind an overload-protection
	// limiter (internal/admission): past the configured concurrency
	// and queue bounds, queries fail fast with a *admission.Rejection
	// carrying a retry hint instead of queueing unboundedly. Statement
	// cache hits bypass the gate (they do no engine work). Nil leaves
	// admission to the serving layers.
	Admission *admission.Config
	// Shards is a no-op that cannot change an answer: every statement,
	// whatever its value, runs on the engine's own executor over the one
	// store, at the snapshot it pins. At 2 or more the engine also builds
	// a shard.Coordinator over that store for Coordinator to return,
	// because the repository benchmark's `sharded` workload probes one;
	// both go when that workload is retired.
	Shards int
}

// StoreOptions returns the in-memory store defaults. It is kept for the
// repository benchmark, which opens its source store with it; the WAL
// fsync policy is the opener's choice (drugtreed's -wal-sync flags,
// DESIGN §10), not the engine's.
func (c Config) StoreOptions() store.Options {
	return store.Options{}
}

// DefaultConfig returns the fully optimized configuration.
func DefaultConfig() Config {
	return Config{
		QueryOptions:   query.DefaultOptions(),
		CacheBytes:     8 << 20,
		EnablePrefetch: true,
	}
}

// TreeTable is the name of the materialized tree relation.
const TreeTable = "tree_nodes"

// TreeSchema is the schema of the materialized tree relation. The
// `pre` column is the preorder number the interval index and
// WITHIN_SUBTREE operate on.
var TreeSchema = store.MustSchema(
	store.Column{Name: "pre", Kind: store.KindInt},
	store.Column{Name: "name", Kind: store.KindString},
	store.Column{Name: "parent_pre", Kind: store.KindInt},
	store.Column{Name: "depth", Kind: store.KindInt},
	store.Column{Name: "is_leaf", Kind: store.KindBool},
	store.Column{Name: "branch_length", Kind: store.KindFloat},
	store.Column{Name: "root_dist", Kind: store.KindFloat},
	store.Column{Name: "leaf_count", Kind: store.KindInt},
	store.Column{Name: "x", Kind: store.KindFloat},
	store.Column{Name: "y", Kind: store.KindFloat},
	// end_pre is the last preorder number inside the node's subtree;
	// [pre, end_pre] is the subtree interval, and pre ≤ P ≤ end_pre
	// is the indexable ancestor test ANCESTOR_OF rewrites to.
	store.Column{Name: "end_pre", Kind: store.KindInt},
)

// Engine is a live DrugTree instance.
type Engine struct {
	cfg     Config
	db      *store.DB
	treeTab *store.Table // tree_nodes; its Version() keys the semantic cache
	tree    *phylo.Tree
	layout  *phylo.Layout
	catalog *query.DBCatalog
	sql     *query.Engine

	cache      *cache.Cache
	stmtCache  *queryCache
	prefetcher *cache.Prefetcher
	limiter    *admission.Limiter
	coord      *shard.Coordinator
	overlay    *ActivityOverlay
	Metrics    *metrics.Registry

	healthFn func() []integrate.SourceHealth
}

// New builds an engine over an integrated database (see
// internal/integrate): it constructs the phylogenetic tree from the
// proteins table, publishes tree_nodes, and wires the query stack.
func New(db *store.DB, cfg Config) (*Engine, error) {
	proteins, err := loadProteins(db)
	if err != nil {
		return nil, err
	}
	if len(proteins) == 0 {
		return nil, fmt.Errorf("core: proteins table is empty")
	}
	method := cfg.Method
	if method == "" {
		if len(proteins) <= 300 {
			method = TreeNJAlign
		} else {
			method = TreeNJKmer
		}
	}
	tree, err := buildTree(proteins, method)
	if err != nil {
		return nil, err
	}
	return NewWithTree(db, tree, cfg)
}

// NewWithTree builds an engine over a prebuilt (indexed or unindexed)
// tree — the path scaling experiments use with synthetic topologies.
func NewWithTree(db *store.DB, tree *phylo.Tree, cfg Config) (*Engine, error) {
	if err := tree.Index(); err != nil {
		return nil, err
	}
	tree.NameClades()
	layout := phylo.NewLayout(tree)
	treeTab, err := publishTree(db, tree, layout)
	if err != nil {
		return nil, err
	}
	// A WITHIN_SUBTREE on a column naming proteins reads one range of its
	// rank index, on the table, where every catalog over db and tree
	// finds it.
	for tab, col := range map[string]string{integrate.TableActivities: "protein_id", integrate.TableProteins: "accession", integrate.TableAnnotations: "protein_id"} {
		if t, err := db.Table(tab); err == nil && t.Schema().ColumnIndex(col) >= 0 {
			if err := query.IndexByTree(t, col, tree); err != nil {
				return nil, err
			}
		}
	}
	e := &Engine{
		cfg:        cfg,
		db:         db,
		treeTab:    treeTab,
		tree:       tree,
		layout:     layout,
		catalog:    query.NewDBCatalog(db, tree),
		Metrics:    metrics.NewRegistry(),
		prefetcher: cache.NewPrefetcher(),
	}
	e.sql = query.NewEngine(e.catalog, cfg.QueryOptions)
	if _, err := db.Table(integrate.TableActivities); err == nil {
		// Incrementally-maintained subtree aggregates over activities:
		// the optimizer answers WITHIN_SUBTREE COUNT/SUM/AVG(affinity)
		// from the overlay when the statement's snapshot matches the
		// overlay version (see overlay.go and query/overlay.go).
		ov, err := NewActivityOverlay(db, tree)
		if err != nil {
			return nil, err
		}
		e.overlay = ov
		e.catalog.OverlayAggs = ov
	}
	if cfg.CacheBytes > 0 {
		e.cache = cache.New(cfg.CacheBytes)
		e.cache.ExactOnly = cfg.CacheExactOnly
	}
	if cfg.QueryCacheEntries > 0 {
		e.stmtCache = newQueryCache(cfg.QueryCacheEntries)
	}
	if cfg.Admission != nil {
		ac := *cfg.Admission
		if ac.Name == "" {
			ac.Name = "engine"
		}
		if ac.Metrics == nil {
			ac.Metrics = e.Metrics
		}
		e.limiter = admission.NewLimiter(ac)
	}
	if cfg.Shards >= 2 {
		coord, err := shard.Partition(db, tree, shard.Options{Shards: cfg.Shards, QueryOptions: cfg.QueryOptions})
		if err != nil {
			return nil, err
		}
		e.coord = coord
	}
	return e, nil
}

// loadProteins reads the proteins table into seq.Protein records.
func loadProteins(db *store.DB) ([]*seq.Protein, error) {
	t, err := db.Table(integrate.TableProteins)
	if err != nil {
		return nil, err
	}
	acc := t.Schema().ColumnIndex("accession")
	name := t.Schema().ColumnIndex("name")
	fam := t.Schema().ColumnIndex("family")
	sq := t.Schema().ColumnIndex("sequence")
	if acc < 0 || sq < 0 {
		return nil, fmt.Errorf("core: proteins table lacks accession/sequence columns")
	}
	var out []*seq.Protein
	t.Scan(func(_ int64, r store.Row) bool {
		p := &seq.Protein{ID: r[acc].S, Residues: r[sq].S}
		if name >= 0 {
			p.Name = r[name].S
		}
		if fam >= 0 {
			p.Family = r[fam].S
		}
		out = append(out, p)
		return true
	})
	// A scan runs in storage order, which follows the table's commit
	// history (freed slots are reused); tree building breaks distance
	// ties by input position, so a fixed input order is what makes two
	// builds of one dataset number and name their clades identically.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// buildTree constructs the phylogeny with the selected method.
func buildTree(proteins []*seq.Protein, method TreeMethod) (*phylo.Tree, error) {
	names := make([]string, len(proteins))
	for i, p := range proteins {
		names[i] = p.ID
	}
	var m *phylo.DistanceMatrix
	switch method {
	case TreeNJAlign:
		scoring := align.BLOSUM62(8)
		m = phylo.ComputeDistances(names, phylo.PairRows(func(i, j int) float64 {
			return align.DistanceBanded(proteins[i].Residues, proteins[j].Residues, scoring, 32)
		}))
	case TreeNJKmer:
		profiles := make([]*seq.KmerProfile, len(proteins))
		for i, p := range proteins {
			prof, err := seq.NewKmerProfile(p.Residues, kmerK)
			if err != nil {
				return nil, err
			}
			profiles[i] = prof
		}
		m = phylo.ComputeDistances(names, seq.CosineRows(profiles))
	default:
		return nil, fmt.Errorf("core: unknown tree method %q", method)
	}
	return phylo.NeighborJoining(m)
}

// treeImage lays the tree out as tree_nodes' frozen image: one row per
// node in preorder, so a node's ID is its slot and its pre. The image
// reads the tree rather than copying it and allocates nothing per node:
// pre is the dense column, which the store computes from the slot;
// parent_pre, depth, leaf_count and end_pre are computed from the
// tree's own int32 arrays, name from its name arena and is_leaf from
// the preorder rule that a node is a leaf when its subtree ends at
// itself; branch_length is the tree's branch lengths, root_dist and x
// are both Layout.X (the tree's root distances) and y is Layout.Y. The
// name lookup is the tree's own name index, which files every row:
// NameClades has named every node.
func treeImage(t *phylo.Tree, layout *phylo.Layout) store.FrozenImage {
	ends := t.Ends()
	ints := func(v []int32) store.Col {
		return store.Col{Kind: store.KindInt, Compute: func(dst *store.Col, slots []int32) {
			for k, s := range slots {
				dst.Int[k] = int64(v[s])
			}
		}}
	}
	leaf := store.Col{Kind: store.KindBool, Compute: func(dst *store.Col, slots []int32) {
		for k, s := range slots {
			dst.Int[k] = 0
			if ends[s] == s {
				dst.Int[k] = 1
			}
		}
	}}
	names := store.Col{Kind: store.KindString, Compute: func(dst *store.Col, slots []int32) {
		for k, s := range slots {
			dst.Str[k] = t.Name(phylo.NodeID(s))
		}
	}}
	floats := func(v []float64) store.Col { return store.Col{Kind: store.KindFloat, Float: v} }
	dist := floats(layout.X)
	return store.FrozenImage{
		Rows: t.Len(),
		Cols: []store.Col{
			{Kind: store.KindInt}, names, ints(t.Parents()), ints(t.Depths()), leaf,
			floats(t.Lengths()), dist, ints(t.LeafCounts()), dist, floats(layout.Y), ints(ends),
		},
		Dense: "pre",
		Hash:  "name",
		Lookup: func(dst []int32, k store.Value) []int32 {
			if k.K == store.KindString {
				t.NodesByName(k.S, func(id phylo.NodeID) bool { dst = append(dst, int32(id)); return true })
			}
			return dst
		},
		Distinct: t.DistinctNames(),
	}
}

// publishTree publishes tree_nodes as a frozen table: whole, at one
// commit version, never logged. Builds before the frozen kind persisted
// tree_nodes as a stored table; the store refuses to replace one, so an
// engine over such a directory fails to build until it is rebuilt.
func publishTree(db *store.DB, t *phylo.Tree, layout *phylo.Layout) (*store.Table, error) {
	tab, err := db.PublishFrozen(TreeTable, TreeSchema, treeImage(t, layout))
	if err != nil {
		return nil, fmt.Errorf("core: publishing %s: %w", TreeTable, err)
	}
	return tab, nil
}

// Tree returns the engine's phylogenetic tree.
func (e *Engine) Tree() *phylo.Tree { return e.tree }

// Layout returns the display layout.
func (e *Engine) Layout() *phylo.Layout { return e.layout }

// DB returns the underlying store.
func (e *Engine) DB() *store.DB { return e.db }

// Overlay returns the live activity overlay (nil when the database has
// no activities table).
func (e *Engine) Overlay() *ActivityOverlay { return e.overlay }

// CacheStats returns semantic cache counters (zero Stats when caching
// is disabled).
func (e *Engine) CacheStats() cache.Stats {
	if e.cache == nil {
		return cache.Stats{}
	}
	return e.cache.Stats()
}

// AttachHealth connects a per-source freshness provider (normally the
// importer's Health method) so servers can surface degraded sources.
func (e *Engine) AttachHealth(fn func() []integrate.SourceHealth) { e.healthFn = fn }

// SourceHealth reports per-source freshness, or nil when no provider
// is attached (engines built from a static snapshot).
func (e *Engine) SourceHealth() []integrate.SourceHealth {
	if e.healthFn == nil {
		return nil
	}
	return e.healthFn()
}

// TreePlacement counts the proteins, at the latest version, that no
// tree leaf names (unplaced) and the leaves that name no protein
// (orphaned), resolving names as tree predicates do. New builds the
// tree once, so a synced insert is unplaced and a synced delete leaves
// an orphan, missing from or stale in every WITHIN_SUBTREE answer. An
// engine with no proteins table reports none.
func (e *Engine) TreePlacement() (unplaced, orphaned int) {
	tab, err := e.db.Table(integrate.TableProteins)
	if err != nil {
		return 0, 0
	}
	acc, tree := tab.Schema().ColumnIndex("accession"), e.tree
	placed, named := make([]bool, tree.Len()), 0
	tab.Scan(func(_ int64, r store.Row) bool {
		switch id, ok := tree.NodeByName(r[acc].S); {
		case !ok || !tree.Node(id).IsLeaf():
			unplaced++
		case !placed[id]:
			placed[id] = true
			named++
		}
		return true
	})
	return unplaced, tree.LeafCount(tree.Root()) - named
}

// NodeByName resolves a node name (protein accession or clade label).
func (e *Engine) NodeByName(name string) (phylo.NodeID, error) {
	id, ok := e.tree.NodeByName(name)
	if !ok {
		return phylo.None, fmt.Errorf("core: no tree node named %q", name)
	}
	return id, nil
}

// Query is QueryColumns' row adapter. The caller owns the returned
// result and may mutate it freely: it is QueryColumns' shared answer
// copied into Rows by store.RowsFromColBatch, with its own column names
// and per-operator stats, and no Batch. Nothing in the module outside
// tests calls it; it stays for the repository benchmark, whose checks
// and traced frames read Result.Rows.
func (e *Engine) Query(ctx context.Context, src string) (*query.Result, error) {
	shared, err := e.QueryColumns(ctx, src)
	if err != nil {
		return nil, err
	}
	res := *shared
	res.Columns = append([]string(nil), shared.Columns...)
	res.Batch, res.Rows = nil, store.RowsFromColBatch(shared.Batch)
	if ops := shared.Stats.Ops; ops != nil {
		copies := make([]query.OpStats, len(ops))
		res.Stats.Ops = make([]*query.OpStats, len(ops))
		for i, op := range ops {
			if op != nil {
				copies[i] = *op
				res.Stats.Ops[i] = &copies[i]
			}
		}
	}
	return &res, nil
}

// QueryColumns runs a DTQL statement through the engine's optimizer
// settings, consulting the statement cache first when enabled, and
// returns the answer as Result.Batch and no Rows. The result is
// shared — the statement cache holds it and every hit returns the same
// pointer — so it is read-only: neither the caller nor anything it
// hands the result to may write its columns, names or stats. That is
// sound because nothing writes a columnar result after the executor's
// result boundary returns it (DESIGN §4 item 12). The context cancels
// mid-flight execution — a client that navigates away mid-query aborts
// the work instead of waiting it out.
//
// Each statement runs against one pinned MVCC snapshot: the cache
// currency check and the execution read the same frozen image, so a
// sync publishing between them can neither serve a stale hit against
// new versions nor fill the cache with a result no single version ever
// contained.
func (e *Engine) QueryColumns(ctx context.Context, src string) (*query.Result, error) {
	start := time.Now()
	stmt, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	snap := e.db.PinSnapshot()
	defer snap.Release()
	var version string
	if e.stmtCache != nil {
		version = e.versionKey(stmt, snap)
		if res, ok := e.stmtCache.get(src, version); ok {
			e.Metrics.Counter("query.stmt_cache_hits").Inc()
			e.Metrics.Histogram("query.latency").Record(time.Since(start))
			return res, nil
		}
		e.Metrics.Counter("query.stmt_cache_misses").Inc()
	}
	res, err := e.execute(ctx, stmt, snap, start)
	if err != nil {
		return nil, err
	}
	if e.stmtCache != nil {
		e.stmtCache.put(src, version, res)
	}
	return res, nil
}

// execute is the half of QueryColumns behind the statement cache:
// admission, then plan and run at snap on the engine's own executor,
// delivering Result.Batch. Tree navigation enters here directly (the
// semantic cache already fronts it; a statement-cache copy of every
// subtree would be a second one).
func (e *Engine) execute(ctx context.Context, stmt *query.SelectStmt, snap *store.SnapshotHandle, start time.Time) (*query.Result, error) {
	if e.limiter != nil {
		release, err := e.limiter.Acquire(ctx)
		if err != nil {
			e.Metrics.Counter("query.shed").Inc()
			return nil, fmt.Errorf("core: query admission: %w", err)
		}
		defer release()
	}
	res, err := e.sql.RunAt(ctx, stmt, snap)
	e.Metrics.Histogram("query.latency").Record(time.Since(start))
	if err != nil {
		e.Metrics.Counter("query.errors").Inc()
		return nil, err
	}
	e.Metrics.Counter("query.count").Inc()
	return res, nil
}

// Limiter exposes the engine's admission limiter (nil when
// Config.Admission is unset) so serving layers can inspect Stats.
func (e *Engine) Limiter() *admission.Limiter { return e.limiter }

// Coordinator returns the shard.Coordinator built over the engine's
// store when Config.Shards >= 2, nil otherwise. The engine never
// routes a statement through it.
func (e *Engine) Coordinator() *shard.Coordinator { return e.coord }

// Close releases what the engine owns beyond the store, which the
// caller owns: today nothing, so it is a no-op on every configuration.
func (e *Engine) Close() error { return nil }

// Drain gracefully stops query admission: queued queries are shed, the
// in-flight ones finish, bounded by ctx. A no-op without admission.
func (e *Engine) Drain(ctx context.Context) error {
	if e.limiter == nil {
		return nil
	}
	return e.limiter.Drain(ctx)
}
