# DrugTree build & verification entry points.
#
# `make check` is the default gate: vet + full test suite + the race
# detector over the packages with concurrent execution paths (the
# engine serving concurrent statements and the layers under it).

GO ?= go

.PHONY: all build test race vet lint loc knobs heap nm ledger bench-smoke bench-micro bench-repo bench-repo-smoke fuzz-smoke chaos overload check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Non-test Go lines per internal/* package (and cmd/, examples/), one
# line each, then their total: the table EXPERIMENTS sections quote
# before and after a change.
loc:
	@total=0; for d in internal/* cmd examples; do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l); \
		printf '%-24s %s\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-24s %s\n' total $$total

# Exported fields of each configuration struct, then drugtreed's flag
# count: the knob inventory EXPERIMENTS sections quote before and after
# a change that retires options.
knobs:
	@for t in core.Config admission.Config store.Options query.Options shard.Options; do \
		printf '%-24s %s\n' $$t "$$($(GO) doc -all ./internal/$${t%%.*} $${t#*.} | grep -cE '^[[:space:]][A-Z][[:alnum:]_]* ')"; \
	done
	@printf '%-24s %s\n' drugtreed-flags "$$(grep -c '= flag\.' cmd/drugtreed/main.go)"

# The concurrency certificate: differential, cancellation, and stress
# tests under the race detector — the query executor, the engine
# serving concurrent statements through it, and the resilience layer
# (sources hammered by concurrent fetchers, health map read during
# sync, mobile sessions), plus the two layers underneath them all: the
# MVCC store (pinned index walks, selects and fills against a
# concurrent committer, and the crash-point torture matrix) and the
# fault-injecting VFS; core carries the live-ingest tests (no torn read
# during resync, nothing pinned or unswept at rest, the incremental
# overlay equal to a rebuild), and phylo the distance matrix, whose
# workers fill one shared triangle row by row. The -timeout is the wedge
# watchdog: a lock-order bug between concurrent statements or in a mobile
# session manifests as a silent hang rather than a failure, so the test
# runner panics at the deadline and dumps every goroutine's stack.
race:
	$(GO) test -race -timeout=300s ./internal/query/... ./internal/core/... ./internal/cache/... \
		./internal/source/... ./internal/integrate/... ./internal/mobile/... \
		./internal/admission/... ./internal/store/... ./internal/vfs/... \
		./internal/phylo/...
	$(GO) test -race -timeout=300s -run 'TestRunT9' ./internal/experiments/

vet:
	$(GO) vet ./...

# Static-analysis gate: go vet, then the drugtree analyzer suite
# (clockcheck, ctxcheck, errcmp, fscheck, lockcheck, sendcheck,
# snapcheck, spawncheck, wrapcheck; lockcheck also follows calls
# across packages — see DESIGN.md "Static-analysis gates"), over this
# module and over the repository benchmark's own module under bench/.
# The suite has one
# driver, cmd/drugtree-lint, which also enforces the suppression
# budget. staticcheck runs when a pinned binary is available; the
# container image does not bake one in and the build is offline, so it
# is gated rather than required.
# Baseline: 0 findings over all nine analyzers, suppressions
# lockcheck 3/3
# (store/db.go: the checkpoint fsync under db.mu, the WAL truncation
# fsync and the group-commit fsync under the writer's mutexes).
STATICCHECK ?= staticcheck
STATICCHECK_VERSION ?= 2024.1.1

lint: vet
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		echo "staticcheck ($$($(STATICCHECK) -version 2>/dev/null || echo unpinned), want $(STATICCHECK_VERSION))"; \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; skipping (pin $(STATICCHECK_VERSION) when available)"; \
	fi
	$(GO) run ./cmd/drugtree-lint ./...
	cd bench && $(GO) run drugtree/cmd/drugtree-lint ./...

# One-iteration smoke over every benchmark in the tree: -benchtime=1x
# compiles and executes each Benchmark* once, so a bit-rotted
# benchmark (stale query, renamed helper, broken setup) fails the gate
# without paying for real measurement. Real numbers come from `make
# bench-micro`, `make bench-repo` and the experiment tables.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# The repository benchmark (BENCHMARK.json, bench/) is a nested module
# that `./...` never reaches: its own tests build it and run every
# workload once at smoke size with the output checks on (≈ 15 s), so a
# change that breaks what the harness calls fails here, not in the
# driver.
bench-repo-smoke:
	cd bench && $(GO) test ./...

# The committed numbers: every workload of the repository benchmark
# once untraced (the seven end-to-end metrics) and once with --trace 1
# (the per-layer table), each run's final JSON line collected under a
# host header (which records the load average the run started under)
# into $(BENCH_JSON) at the root. ≈ 2.5 min; run it on an otherwise
# idle host and commit the file with the change it measures. A file git
# already tracks is a committed record: the target refuses to overwrite
# it, so a later change names its own with BENCH_JSON=BENCH_<n>.json.
BENCH_JSON ?= BENCH_60.json

bench-repo:
	@if git ls-files --error-unmatch $(BENCH_JSON) >/dev/null 2>&1; then \
		echo "bench-repo: $(BENCH_JSON) is a committed record; pass BENCH_JSON=BENCH_<n>.json for a new run" >&2; exit 1; \
	fi
	@set -e; tmp=$(BENCH_JSON).tmp; \
	printf '{"host":{"cpu":"%s","cpus":%s,"mem_mb":%s,"kernel":"%s","go":"%s","date":"%s","loadavg":"%s"},\n "runs":[' \
		"$$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1)" "$$(nproc)" \
		"$$(awk '/^MemTotal/ {print int($$2/1024)}' /proc/meminfo)" "$$(uname -sr)" \
		"$$($(GO) env GOVERSION)" "$$(date -u +%F)" "$$(cut -d' ' -f1-3 /proc/loadavg)" > $$tmp; \
	sep=; for w in browse analytics ingest sharded; do for trace in 0 1; do \
		echo "bench-repo: $$w --trace $$trace" >&2; \
		line=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 10 --trace $$trace | tail -n 1); \
		printf '%s\n  {"workload":"%s","seed":%s,"trace":%s,"report":%s}' \
			"$$sep" $$w 1 $$trace "$$line" >> $$tmp; sep=,; \
	done; done; \
	printf '\n ]}\n' >> $$tmp; mv $$tmp $(BENCH_JSON)

# Where the engines' heap goes: TestD1HeapAtRest builds dataset D1,
# its source banks, the imported store and the engine, keeps them
# alive, and writes an in-use heap profile after a forced GC (every
# allocation sampled); TestTreeNodesHeap does the same for browse's
# engine over a 100 000-leaf tree. Each profile's top entries by in-use
# bytes follow it. A heap claim starts from this attribution.
HEAP_PROFILE ?= d1-heap.pprof
TREE_HEAP_PROFILE ?= tree-heap.pprof

heap:
	$(GO) test -count=1 -run '^TestD1HeapAtRest$$' -v ./internal/core \
		-test.memprofilerate=1 -args -heap-profile=$(abspath $(HEAP_PROFILE))
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=25 $(HEAP_PROFILE)
	$(GO) test -count=1 -run '^TestTreeNodesHeap$$' -v ./internal/core \
		-test.memprofilerate=1 -args -heap-profile=$(abspath $(TREE_HEAP_PROFILE))
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=25 $(TREE_HEAP_PROFILE)

# Where the two kernels whose timings follow their code alignment sit
# (ROADMAP 2(i)): builds bench/ as bench/run.sh does, into the same
# .bench_build/, and prints the addresses of the calibration kernel
# main.(*calibrator).tick and the executor's
# query.(*vecHashJoin).nextBatch, each with its offset mod 64. An
# EXPERIMENTS section quotes it for both sides of a pair.
NM_SYMBOLS = 'main.(*calibrator).tick' 'drugtree/internal/query.(*vecHashJoin).nextBatch'

nm:
	@set -e; build=$(CURDIR)/.bench_build; mkdir -p $$build/tmp; \
	export GOCACHE=$$build/gocache GOMODCACHE=$$build/gomodcache GOTMPDIR=$$build/tmp \
		GOPATH=$$build/gopath XDG_CONFIG_HOME=$$build/config GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off; \
	$(GO) build -C bench -o $$build/drugtree-bench .; \
	syms=$$($(GO) tool nm $$build/drugtree-bench); \
	for sym in $(NM_SYMBOLS); do \
		addr=$$(printf '%s\n' "$$syms" | awk -v s="$$sym" '$$3 == s && $$2 == "T" { print $$1 }'); \
		if [ -z "$$addr" ]; then echo "nm: $$sym not in the benchmark binary" >&2; exit 1; fi; \
		printf '%-50s 0x%s  %2d mod 64\n' "$$sym" "$$addr" $$((0x$$addr % 64)); \
	done

# The count ledger (core.TestCountLedger): for each analytics statement
# class the allocations and bytes one statement allocates on the served
# path, the rows its statements examine, the rows their joins emit and
# their reply bytes, and one 512 + 512-row ingest commit's allocations and bytes,
# measured now and checked against internal/core/testdata/counts.golden
# (`go test ./internal/core -run TestCountLedger -update-counts`
# rewrites it). Counts, unlike timings, do not follow the host's load.
ledger:
	$(GO) test -count=1 -run '^TestCountLedger$$' -v ./internal/core

# Storage- and operator-layer microbenchmarks with -benchmem: the
# store's insert, lookup, range read, sequential pass and 512+512
# delta commit, a 48 k-row scan of activities-shaped rows whose two
# STRING columns are coded, one posting's insert / probe / remove / range walk
# through each index form (a hash index over STRING is the code index:
# the string coded through the DB's dictionary, its rows filed under the
# code), the backfill of a code index and of a B+-tree over 48 k
# activities-shaped rows, one churned row's trip out of and back into
# a code index and a B+-tree over the same codes, one 1 024-row Fill of
# a frozen INT column
# held as int64, as int32 and as the dense column, and the query
# layer's hashing operators —
# the hash join on coded keys and on INT keys, the aggregate, the flat
# table under both (8 192 keys
# inserted / probed), the keyed probe, the group-join and an aggregate
# folded straight from storage over 8.6 k index-selected rows — and
# parsing of the six
# analytics shapes, one a op, the subtree
# overlay's share of a 512 + 512-row commit, served-path planning
# (BuildLogical + Optimize) of the 18 analytics statements the core
# plan golden pins, one a op, the six subtree_join and ligand_rank
# statements among them served whole (parse, plan and a rank-index
# read), one a op, each of the six classes served whole through
# QueryColumns, one sub-benchmark a class, at the smoke size and at
# D1's full size (BenchmarkAnalyticsClassesD1), one 100-row, 4-column
# query reply through the wire codec (encoded from shared columns,
# framed, decoded into one slab) and one analytics request on a warm
# session (split, framed as a reference to its template's slot,
# decoded and spliced), one LOD-delta Open's viewport build
# and merge diff at a budget of 100, one 64-node TreeDelta's decode,
# the k-mer distance matrix at
# dataset D1's size (800 sequences × 240 residues, k = 4), and
# neighbour-joining over random matrices of 50, 200, 800 and 3 200 taxa
# and D1-shaped k-mer matrices of 200, 800, 1 600 and 3 200 taxa (the
# two 3 200-taxon builds take ≈ 3 s and ≈ 250 MB each). EXPERIMENTS
# "Compact storage", "Typed indexes", "Flat hash operators", "Joins
# that read only what survives", "Commits that allocate nothing per
# changed row", "Folds that read storage", "Replies that stay columnar",
# "Set-up that does each piece of work once", "Set-up with no serial
# quadratic pass", "Set-up that touches only the pairs that can
# matter", "Viewport deltas by merge" and "Node records that cannot
# go stale" record them.
bench-micro:
	$(GO) test -run '^$$' -benchmem \
		-bench 'BenchmarkInsert|BenchmarkLookup|BenchmarkGatherRange|BenchmarkSeqPass|BenchmarkTableScan|BenchmarkCommitDelta512|BenchmarkIndex|BenchmarkFrozenFill' ./internal/store/
	$(GO) test -run '^$$' -benchmem \
		-bench 'BenchmarkVecHashJoin|BenchmarkVecAggregate|BenchmarkHashTab|BenchmarkKeyedProbe|BenchmarkGroupJoin|BenchmarkFoldScan|BenchmarkParse$$' ./internal/query/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkOverlayApply|BenchmarkServedPlan|BenchmarkSubtreeAccess|BenchmarkAnalyticsClasses' ./internal/core/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkQueryReply|BenchmarkQueryRequest|BenchmarkOpenDelta|BenchmarkDecodeTreeDelta' ./internal/mobile/
	$(GO) test -run '^$$' -benchmem -bench 'BenchmarkKmerDistances|BenchmarkNeighborJoining' ./internal/phylo/

# Ten seconds of each fuzz target over its checked-in corpus: the DTQL
# parser's parse → String → parse and the Newick parser's parse →
# Newick → parse round trips, neither ever panicking, the tree's name
# index against a map (every named node, ascending, distinct names
# counted), the subtree
# overlay's exact sum against its big.Int oracle under adds and removes
# of arbitrary float64s, the mobile message decoder (never a panic,
# allocation bounded by the payload, decode → encode byte-identical),
# the mobile statement splitter (for any text a deterministic split
# whose splice is the text, and one a server splices back from a
# client's frames),
# the k-mer distance (the merge Cosine and the matrix kernel equal
# the map-based oracle bit for bit, inside [0, 1]), and neighbour-joining
# (never a panic, an error for a NaN or ±Inf entry, and otherwise the
# full-matrix loop's tree bit for bit), and the batch expression
# compiler (over a random batch with NULL, NaN, ±Inf and −0 cells it
# equals the test-only row compiler cell for cell, bit for bit, and
# fails at the same row with the same error), and the SMILES parser
# (never a panic; a string that parses gives the same formula and
# fingerprint twice, and a molecule with atoms a finite positive
# weight, a formula and a self-Tanimoto of 1).
# `go test -fuzz` takes one target and one package a run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzVecEval$$' -fuzztime 10s ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzNewick$$' -fuzztime 10s ./internal/phylo/
	$(GO) test -run '^$$' -fuzz '^FuzzExactSum$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMsg$$' -fuzztime 10s ./internal/mobile/
	$(GO) test -run '^$$' -fuzz '^FuzzStatementTemplate$$' -fuzztime 10s ./internal/mobile/
	$(GO) test -run '^$$' -fuzz '^FuzzKmerCosine$$' -fuzztime 10s ./internal/bio/seq/
	$(GO) test -run '^$$' -fuzz '^FuzzNeighborJoining$$' -fuzztime 10s ./internal/phylo/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSMILES$$' -fuzztime 10s ./internal/chem/

# The T8 chaos experiment: scripted outage/brownout/error-burst
# timeline with the resilience stack on vs off, plus its gate test.
chaos:
	$(GO) test -run TestRunT8 -v ./internal/experiments/
	$(GO) run ./cmd/drugtree-experiments -exp T8

# The T9 overload experiment: Poisson load sweep past saturation,
# deadline-aware shedding vs an unprotected queue, plus its gate test
# under the race detector.
overload:
	$(GO) test -race -run TestRunT9 -v ./internal/experiments/
	$(GO) run ./cmd/drugtree-experiments -exp T9

check: lint build test bench-smoke bench-repo-smoke fuzz-smoke race

clean:
	$(GO) clean ./...
