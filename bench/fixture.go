package main

import (
	"context"
	"fmt"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/query"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// browseLeaves sizes the navigation-only tree: 100k leaves ≈ 200k
// tree_nodes rows ≈ 12 MB of row payload against the 8 MiB semantic
// cache, so a session's regions do not all fit and eviction runs.
const browseLeaves = 100_000

// Smoke sizes for -short: a 20k-leaf tree and a 320-protein D1 (just
// above the 300 at which core.New switches from alignment to k-mer
// distances) build in well under a second.
const shortBrowseLeaves = 20_000

// shardCount is the partition count of the `sharded` workload: one
// shard per core of the 2-core reference host.
const shardCount = 2

// datasetSeed generates both datasets. The data is a fixed corpus, as a
// scale-factor-1 table set is in a database benchmark; -seed draws the
// requests made of it. Run-to-run comparisons need that split: the
// driver compares runs made with different seeds, and a new family
// structure or tree per seed moves every metric by several percent
// before any code has changed.
const datasetSeed = 1

// d1Config is dataset D1 (≈ 800 proteins, ≈ 48k activities). Ligands
// stay at 200: the simulated banks re-filter every row per fetched
// page, so import time grows quadratically with the activity count.
func d1Config(short bool) datagen.Config {
	cfg := datagen.DefaultConfig()
	cfg.Seed = datasetSeed
	cfg.NumFamilies = 16
	cfg.ProteinsPerFamily = 50
	cfg.SeqLen = 240
	cfg.NumLigands = 200
	cfg.ActivityDensity = 0.3
	if short {
		cfg.NumFamilies, cfg.ProteinsPerFamily, cfg.NumLigands = 8, 40, 80
	}
	return cfg
}

// setupTiming splits one fixture build into its stages.
type setupTiming struct {
	generate time.Duration // datagen.Generate / RandomTopology
	imprt    time.Duration // Importer.ImportAll (D1 only)
	build    time.Duration // core.New / core.NewWithTree
	total    time.Duration
}

// fixture is one built system under test plus the handles the harness
// checks it through.
type fixture struct {
	workload string
	db       *store.DB
	eng      *core.Engine
	// ref is the single-node oracle over the same store: a bare
	// query.Engine without statement cache, admission, overlay or
	// shards. Nil on browse, which carries no integrated tables.
	ref    *query.Engine
	ds     *datagen.Dataset
	bundle *source.Bundle
	im     *integrate.Importer
	timing setupTiming
}

// engineConfig is the configuration cmd/drugtreed serves with:
// defaults, the 256-entry statement cache and the 8/64 admission gate.
func engineConfig(workload string) core.Config {
	cfg := core.DefaultConfig()
	cfg.QueryCacheEntries = 256
	cfg.Admission = &admission.Config{MaxConcurrency: 8, MaxQueue: 64}
	if workload == wlSharded {
		cfg.Shards = shardCount
	}
	return cfg
}

// buildFixture generates the workload's dataset (its smoke-sized
// version when short) and builds the engine over an in-memory store
// (no WAL), timing each stage.
func buildFixture(ctx context.Context, workload string, short bool) (*fixture, error) {
	cfg := engineConfig(workload)
	fx := &fixture{workload: workload}
	start := time.Now()
	db, err := store.OpenWith("", cfg.StoreOptions())
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	fx.db = db
	if workload == wlBrowse {
		leaves := browseLeaves
		if short {
			leaves = shortBrowseLeaves
		}
		tree, err := datagen.RandomTopology(leaves, datasetSeed)
		if err != nil {
			return nil, fmt.Errorf("generate topology: %w", err)
		}
		fx.timing.generate = time.Since(start)
		t0 := time.Now()
		fx.eng, err = core.NewWithTree(db, tree, cfg)
		if err != nil {
			return nil, fmt.Errorf("build navigation engine: %w", err)
		}
		fx.timing.build = time.Since(t0)
	} else {
		fx.ds, err = datagen.Generate(d1Config(short))
		if err != nil {
			return nil, fmt.Errorf("generate dataset: %w", err)
		}
		fx.timing.generate = time.Since(start)
		t0 := time.Now()
		fx.bundle = source.NewBundle(fx.ds, netsim.ProfileLAN, datasetSeed, true)
		fx.im = integrate.NewImporter(db, fx.bundle)
		if _, err := fx.im.ImportAll(ctx); err != nil {
			return nil, fmt.Errorf("import dataset: %w", err)
		}
		fx.timing.imprt = time.Since(t0)
		t0 = time.Now()
		fx.eng, err = core.New(db, cfg)
		if err != nil {
			return nil, fmt.Errorf("build engine: %w", err)
		}
		fx.timing.build = time.Since(t0)
		fx.eng.AttachHealth(fx.im.Health)
		fx.ref = query.NewEngine(query.NewDBCatalog(db, fx.eng.Tree()), cfg.QueryOptions)
	}
	fx.timing.total = time.Since(start)
	return fx, nil
}

// close releases the shard stores and the source store.
func (fx *fixture) close() error {
	if err := fx.eng.Close(); err != nil {
		return fmt.Errorf("close engine: %w", err)
	}
	if err := fx.db.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	return nil
}
