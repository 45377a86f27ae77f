package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"drugtree/internal/query"
	"drugtree/internal/store"
)

// TestConcurrentQueriesDuringResync hammers one engine from many
// goroutines while the importer re-syncs the source tables — the
// server's steady state when a background refresh lands mid-session.
// Run under -race this is the executor's thread-safety certificate;
// beyond mere survival it asserts exact snapshot isolation: a probe
// table is rewritten generation by generation through atomic delta
// commits, and every reader must observe one complete generation —
// full row count, a single gen value — never a mix of two, through the
// row adapter and through QueryColumns, the served path. The readers
// set the run length; the writer alternates resyncs with probe flips
// until they finish. At rest no snapshot stays pinned and the version
// GC has swept every superseded row. The statement cache is off, so
// every query truly executes.
func TestConcurrentQueriesDuringResync(t *testing.T) {
	setProcs(t, 4) // statements interleave on 4 Ps even on 1 CPU
	e, importer := buildEngineFrom(t, smallDataset(), DefaultConfig())
	db, ctx := e.DB(), context.Background()

	// Isolation probe: probeRows rows that always share one gen value.
	// Each flip deletes the whole old generation and inserts the new
	// one in a single CommitDeltas, so a statement whose snapshot
	// straddled the publish would see COUNT != probeRows or
	// MIN(gen) != MAX(gen).
	const probeRows = 32
	probe, err := db.CreateTable("ingest_probe", store.MustSchema(
		store.Column{Name: "slot", Kind: store.KindInt},
		store.Column{Name: "gen", Kind: store.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(g int64) error {
		delta := store.TableDelta{Table: "ingest_probe"}
		probe.Scan(func(id int64, _ store.Row) bool {
			delta.DeleteIDs = append(delta.DeleteIDs, id)
			return true
		})
		for i := int64(0); i < probeRows; i++ {
			delta.Inserts = append(delta.Inserts, store.Row{store.IntValue(i), store.IntValue(g)})
		}
		return db.CommitDeltas([]store.TableDelta{delta})
	}
	if err := flip(0); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT COUNT(*) FROM proteins",
		"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family",
		"SELECT p.accession, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity > 6",
		"SELECT protein_id, COUNT(DISTINCT ligand_id) FROM activities GROUP BY protein_id",
		"SELECT name FROM tree_nodes WHERE is_leaf = TRUE ORDER BY name LIMIT 5",
	}
	const probeQuery = "SELECT COUNT(*), MIN(gen), MAX(gen) FROM ingest_probe"

	const workers, perWorker = 8, 25
	var (
		ran, flips atomic.Int64
		errOnce    sync.Once
		firstErr   error
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for g := int64(1); ; g++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := importer.Sync(ctx); err != nil {
				fail(fmt.Errorf("resync: %w", err))
				return
			}
			if err := flip(g); err != nil {
				fail(fmt.Errorf("probe flip: %w", err))
				return
			}
			flips.Add(1)
		}
	}()
	for w := 0; w < workers; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := e.Query(ctx, q); err != nil {
					fail(fmt.Errorf("worker %d: %q: %w", w, q, err))
					return
				}
				rows, err := e.Query(ctx, probeQuery)
				if err != nil {
					fail(fmt.Errorf("worker %d: probe: %w", w, err))
					return
				}
				cols, err := e.QueryColumns(ctx, probeQuery)
				if err != nil {
					fail(fmt.Errorf("worker %d: probe columns: %w", w, err))
					return
				}
				c := cols.Batch.Cols
				for path, r := range map[string]store.Row{
					"Query":        rows.Rows[0],
					"QueryColumns": {c[0].Value(0), c[1].Value(0), c[2].Value(0)},
				} {
					if r[0].I != probeRows || r[1].I != r[2].I {
						fail(fmt.Errorf("worker %d: torn read through %s: COUNT=%d MIN(gen)=%d MAX(gen)=%d",
							w, path, r[0].I, r[1].I, r[2].I))
						return
					}
				}
				ran.Add(1)
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if ran.Load() != workers*perWorker {
		t.Fatalf("ran %d probe rounds, want %d", ran.Load(), workers*perWorker)
	}
	if flips.Load() == 0 {
		t.Fatal("no probe generation was published while the readers ran")
	}
	t.Logf("%d probe rounds across %d resync + flip rounds", ran.Load(), flips.Load())

	// At rest: one pin and release lets the version GC sweep what the
	// last commits retired; nothing may stay pinned or unswept.
	db.PinSnapshot().Release()
	if n := db.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshot pins leaked at rest", n)
	}
	if n := db.DeadVersions(); n != 0 {
		t.Fatalf("%d dead row versions survived GC at rest", n)
	}
}

// TestQueryCancellationThroughCore verifies the context threads all
// the way from the core API into the executor.
func TestQueryCancellationThroughCore(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Navigation APIs share the same path.
	if _, err := e.Breadcrumbs(ctx, e.Root().Name); !errors.Is(err, context.Canceled) {
		t.Fatalf("Breadcrumbs err = %v, want context.Canceled", err)
	}
}

// setProcs sets runtime.GOMAXPROCS to n until the test ends.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// identicalRows reports whether a and b hold the same rows in the same
// order, cell for cell, floats bit for bit.
func identicalRows(a, b []store.Row) bool {
	return slices.EqualFunc(a, b, func(x, y store.Row) bool {
		return slices.EqualFunc(x, y, func(v, w store.Value) bool {
			return v.K == w.K && v.I == w.I && v.S == w.S && math.Float64bits(v.F) == math.Float64bits(w.F)
		})
	})
}

// TestCoreMatchesQueryEngine runs a residual scan, a hash join, grouped
// aggregates and the analysis layer's shapes on a core engine and on a
// query engine over the same database. The dataset holds about 3 200
// activities, several executor batches. Plans must be byte-identical
// and the rows too, in order and bit for bit.
func TestCoreMatchesQueryEngine(t *testing.T) {
	gen := smallDataset()
	gen.NumFamilies, gen.ProteinsPerFamily, gen.NumLigands = 4, 20, 80
	cfg := DefaultConfig()
	cfg.CacheBytes = 0
	e, _ := buildEngineFrom(t, gen, cfg)
	qe := query.NewEngine(query.NewDBCatalog(e.DB(), e.Tree()), query.DefaultOptions())

	queries := []string{
		"SELECT protein_id, ligand_id, affinity FROM activities WHERE assay != 'x' AND ligand_id != 'LIG0000'",
		"SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity > 6",
		"SELECT protein_id, COUNT(*), AVG(affinity), MIN(affinity) FROM activities GROUP BY protein_id",
		"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family",
		`SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p
		 JOIN activities a ON p.accession = a.protein_id GROUP BY p.family`,
		"SELECT COUNT(*) FROM tree_nodes WHERE is_leaf = TRUE",
	}
	for _, q := range queries {
		cres, err := e.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("core %q: %v", q, err)
		}
		qres, err := qe.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query engine %q: %v", q, err)
		}
		if cres.Plan != qres.Plan {
			t.Fatalf("%q: plans diverge:\n%s\nvs\n%s", q, cres.Plan, qres.Plan)
		}
		if !identicalRows(cres.Rows, qres.Rows) {
			t.Fatalf("%q: core and query engine rows differ (%d vs %d rows)", q, len(cres.Rows), len(qres.Rows))
		}
	}
}
