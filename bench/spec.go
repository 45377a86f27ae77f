package main

// The benchmark's fixed vocabulary: workload names, metric names with
// units, and the sizing rule. BENCHMARK.json at the repository root
// lists the same names; TestSpecMatchesBenchmarkJSON keeps the two in
// step.

// Workload names.
const (
	wlBrowse    = "browse"
	wlAnalytics = "analytics"
	wlIngest    = "ingest"
	wlSharded   = "sharded"
)

var workloadNames = []string{wlBrowse, wlAnalytics, wlIngest, wlSharded}

// measuredRounds is R: every op slot is timed once per round and its
// latency is the lower quartile over the rounds (lowerQuartileDur). Five everywhere but on
// browse, whose round is short enough (≈ 0.8 s) to afford ten.
func measuredRounds(workload string) int {
	if workload == wlBrowse {
		return 10
	}
	return 5
}

// setupRepeats is how many times an untraced run builds its fixture;
// setup_s is the median.
const setupRepeats = 3

// metricDef names one metric and its unit.
type metricDef struct {
	Name string
	Unit string
	// Bound is the share of the parent's median an end-to-end metric
	// may worsen by before a change is rejected; 0 on per-layer metrics.
	Bound float64
}

// endToEnd lists the metrics a client of the system would see. Every
// workload emits all of them on an untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "op_mean_ms", Unit: "ms", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Bound: 0.05},
	{Name: "wire_bytes_per_op", Unit: "B", Bound: 0.08},
	{Name: "heap_live_mb", Unit: "MB", Bound: 0.07},
}

// perLayer lists the single-layer metrics a traced run emits, grouped
// by the module they read. A metric a workload does not exercise reads
// 0 there (shard.* outside `sharded`, store.commit_* outside `ingest`).
var perLayer = []metricDef{
	{Name: "mobile.open_p50_ms", Unit: "ms"},
	{Name: "mobile.query_p50_ms", Unit: "ms"},
	{Name: "mobile.lod_build_us", Unit: "us"},
	{Name: "mobile.lod_diff_us", Unit: "us"},
	{Name: "mobile.encode_us_per_op", Unit: "us"},
	{Name: "mobile.decode_us_per_op", Unit: "us"},
	{Name: "mobile.delta_nodes_per_open", Unit: "count"},
	{Name: "mobile.bytes_down_per_op", Unit: "B"},
	{Name: "mobile.bytes_up_per_op", Unit: "B"},

	{Name: "netsim.link3g_ms_per_op", Unit: "ms"},
	{Name: "netsim.link4g_ms_per_op", Unit: "ms"},

	{Name: "core.open_hit_us", Unit: "us"},
	{Name: "core.open_miss_ms", Unit: "ms"},
	{Name: "core.prefetch_ms_per_open", Unit: "ms"},
	{Name: "core.prefetch_executed_per_open", Unit: "count"},
	{Name: "core.query_hit_us", Unit: "us"},
	{Name: "core.query_miss_overhead_us", Unit: "us"},
	{Name: "core.stmt_cache_hit_ratio", Unit: "ratio"},
	{Name: "core.overlay_served_ratio", Unit: "ratio"},
	{Name: "core.overlay_apply_us_per_row", Unit: "us"},
	{Name: "core.build_s", Unit: "s"},

	{Name: "cache.hit_ratio", Unit: "ratio"},
	{Name: "cache.subsumed_ratio", Unit: "ratio"},
	{Name: "cache.evictions_per_kop", Unit: "count"},
	{Name: "cache.bytes_cached_mb", Unit: "MB"},

	{Name: "admission.acquire_us", Unit: "us"},
	{Name: "admission.shed_ratio", Unit: "ratio"},

	{Name: "query.parse_us", Unit: "us"},
	{Name: "query.plan_us", Unit: "us"},
	{Name: "query.exec_ms", Unit: "ms"},
	{Name: "query.rows_examined_per_row_returned", Unit: "ratio"},
	{Name: "query.rows_joined_per_op", Unit: "count"},
	{Name: "query.class_overlay_agg_ms", Unit: "ms"},
	{Name: "query.class_subtree_join_ms", Unit: "ms"},
	{Name: "query.class_topk_ms", Unit: "ms"},
	{Name: "query.class_integration3_ms", Unit: "ms"},
	{Name: "query.class_ligand_rank_ms", Unit: "ms"},
	{Name: "query.class_family_agg_ms", Unit: "ms"},

	{Name: "shard.query_ms", Unit: "ms"},
	{Name: "shard.speedup_vs_single", Unit: "ratio"},
	{Name: "shard.pruned_ratio", Unit: "ratio"},
	{Name: "shard.partition_s", Unit: "s"},
	{Name: "shard.heap_extra_mb", Unit: "MB"},

	{Name: "store.pin_us", Unit: "us"},
	{Name: "store.commit_ms", Unit: "ms"},
	{Name: "store.commit_us_per_row", Unit: "us"},
	{Name: "store.scan_ns_per_row", Unit: "ns"},
	{Name: "store.dead_versions_after_round", Unit: "count"},
	{Name: "store.pinned_versions", Unit: "count"},
	{Name: "store.active_snapshots_at_rest", Unit: "count"},
	{Name: "store.heap_growth_mb", Unit: "MB"},

	{Name: "integrate.import_s", Unit: "s"},
	{Name: "integrate.sync_ms", Unit: "ms"},
	{Name: "source.requests_per_sync", Unit: "count"},
	{Name: "source.rows_moved_per_sync", Unit: "count"},
	{Name: "datagen.generate_s", Unit: "s"},

	{Name: "go.allocs_per_op", Unit: "count"},
	{Name: "go.gc_cycles_per_kop", Unit: "count"},
	{Name: "go.gc_pause_ms_total", Unit: "ms"},
	{Name: "e2e.raw_p99_ms", Unit: "ms"},
	{Name: "e2e.rounds_spread_pct", Unit: "%"},
	{Name: "e2e.wall_op_mean_ms", Unit: "ms"},
	{Name: "e2e.wall_op_p95_ms", Unit: "ms"},
	{Name: "host.slowdown", Unit: "ratio"},
	{Name: "trace.overhead_pct", Unit: "%"},
	{Name: "trace.unattributed_pct", Unit: "%"},
}

// queryClasses are the six analytics statement classes, in rotation
// order; query.class_<name>_ms reports the median of each one's slot latencies.
var queryClasses = []string{
	"overlay_agg", "subtree_join", "topk", "integration3", "ligand_rank", "family_agg",
}

// browseSteps is the opens per browse session, the region open included.
const browseSteps = 16

// sizing fixes how many op slots one round holds. It is a function of
// -seconds alone — never of the clock — so the op list, and with it
// every count metric, repeats exactly for a given seed.
type sizing struct {
	browseSessions int // regions visited, each opened then walked
	queryBlocks    int // analytics/sharded: blocks of 24 statements
	ingestCycles   int // ingest: cycles of 7 slots
	probeStmts     int // traced run: distinct statements replayed per probe
}

// sizeFor scales the round to about a fifth of `seconds` on the
// reference host (2 cores), so the five measured rounds fill it. The
// floors keep every workload at ≥ 240 slots however short the run.
func sizeFor(seconds int, short bool) sizing {
	if short {
		// Smoke size for the determinism test: ≤ 60 slots per workload.
		return sizing{browseSessions: 3, queryBlocks: 2, ingestCycles: 8, probeStmts: 12}
	}
	if seconds < 1 {
		seconds = 1
	}
	atLeast := func(n, floor int) int {
		if n < floor {
			return floor
		}
		return n
	}
	return sizing{
		browseSessions: atLeast(seconds*12, 15),
		queryBlocks:    atLeast(seconds*14/10, 10),
		ingestCycles:   atLeast(seconds*25, 35),
		probeStmts:     96,
	}
}
