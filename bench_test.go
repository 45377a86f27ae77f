package drugtree

// Benchmark harness: one benchmark family per experiment table and
// figure in EXPERIMENTS.md. `go test -bench=. -benchmem` reproduces
// the relative numbers; `go run ./cmd/drugtree-experiments` prints the full
// formatted tables.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/experiments"
	"drugtree/internal/integrate"
	"drugtree/internal/metrics"
	"drugtree/internal/mobile"
	"drugtree/internal/netsim"
	"drugtree/internal/query"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// --- T1: query latency by class ---

func BenchmarkT1QueryClasses(b *testing.B) {
	naive, opt, err := experiments.T1Engines(context.Background(), 1)
	if err != nil {
		b.Fatal(err)
	}
	classes := []struct {
		name string
		mk   func(e *core.Engine) string
	}{
		{"PointLookup", func(*core.Engine) string {
			return "SELECT * FROM proteins WHERE accession = 'DT00007'"
		}},
		{"SubtreeRetrieval", func(e *core.Engine) string {
			return "SELECT pre, name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, 'clade_1')"
		}},
		{"TopKAffinity", func(*core.Engine) string {
			return "SELECT protein_id, affinity FROM activities WHERE affinity >= 8 ORDER BY affinity DESC LIMIT 10"
		}},
		{"Integration", func(*core.Engine) string {
			return `SELECT p.accession, n.organism, l.weight, a.affinity
				FROM proteins p
				JOIN activities a ON p.accession = a.protein_id
				JOIN ligands l ON a.ligand_id = l.ligand_id
				JOIN annotations n ON p.accession = n.protein_id
				WHERE p.family = 'FAM01' AND a.affinity >= 7`
		}},
	}
	for _, cls := range classes {
		for _, eng := range []struct {
			name string
			e    *core.Engine
		}{{"Naive", naive}, {"Optimized", opt}} {
			b.Run(cls.name+"/"+eng.name, func(b *testing.B) {
				q := cls.mk(eng.e)
				if _, err := eng.e.Query(context.Background(), q); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.e.Query(context.Background(), q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- T2: pushdown traffic (reported as bytes/op) ---

func BenchmarkT2SourceTraffic(b *testing.B) {
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 40
	gen.ProteinsPerFamily = 25
	ds, err := datagen.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	filters := []source.Filter{{Column: "family", Op: source.OpEQ, Value: store.StringValue("FAM00")}}
	for _, mode := range []struct {
		name    string
		filters []source.Filter
	}{{"FetchAll", nil}, {"Pushdown", filters}} {
		b.Run(mode.name, func(b *testing.B) {
			bundle := source.NewBundle(ds, netsim.Profile4G, 1, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := source.FetchAll(context.Background(), bundle.Proteins, mode.filters); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := bundle.Proteins.Stats()
			b.ReportMetric(float64(st.BytesDown)/float64(b.N), "bytes/op")
			b.ReportMetric(float64(st.Elapsed.Microseconds())/1e3/float64(b.N), "ms-modelled/op")
		})
	}
}

// --- T3: join ordering ---

func BenchmarkT3JoinOrdering(b *testing.B) {
	mk := func(reorder bool) *core.Engine {
		naive, opt, err := experiments.T1Engines(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if reorder {
			return opt
		}
		return naive
	}
	q := `SELECT p.accession, n.organism, l.weight
		FROM activities a
		JOIN ligands l ON l.ligand_id = a.ligand_id
		JOIN annotations n ON n.protein_id = a.protein_id
		JOIN proteins p ON p.accession = a.protein_id
		WHERE p.family = 'FAM02'`
	for _, mode := range []struct {
		name    string
		reorder bool
	}{{"Syntactic", false}, {"CostBased", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := mk(mode.reorder)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T4: entity resolution throughput ---

func BenchmarkT4Resolve(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	ids := make([]string, 10000)
	for i := range ids {
		buf := make([]byte, 8)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		ids[i] = "DT" + string(buf)
	}
	r := integrate.NewResolver(ids)
	for _, edits := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("edits-%d", edits), func(b *testing.B) {
			queries := make([]string, 1024)
			for i := range queries {
				queries[i] = integrate.CorruptID(rng, ids[rng.Intn(len(ids))], edits)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Resolve(queries[i%len(queries)])
			}
		})
	}
}

// --- T5: tree construction methods (time side; quality is in the
// drugtree-experiments table) ---

func BenchmarkT5TreeBuild(b *testing.B) {
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 6
	gen.ProteinsPerFamily = 15
	gen.SeqLen = 200
	ds, err := datagen.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	for _, method := range []core.TreeMethod{core.TreeNJAlign, core.TreeNJKmer} {
		b.Run(string(method), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Each build needs a fresh DB (tree_nodes is
				// materialize-once); reuse the integrated tables via
				// an in-memory copy is costlier than re-importing the
				// deterministic dataset.
				b.StopTimer()
				db2, _ := store.Open("")
				bundle2 := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
				integrate.NewImporter(db2, bundle2).ImportAll(context.Background())
				cfg := core.DefaultConfig()
				cfg.Method = method
				b.StartTimer()
				if _, err := core.New(db2, cfg); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				db2.Close()
				b.StartTimer()
			}
		})
	}
}

// --- T6: statement cache ---

func BenchmarkT6StatementCache(b *testing.B) {
	_, opt, err := experiments.T1Engines(context.Background(), 1)
	if err != nil {
		b.Fatal(err)
	}
	q := `SELECT p.accession, n.organism, l.weight, a.affinity
		FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		JOIN ligands l ON a.ligand_id = l.ligand_id
		JOIN annotations n ON p.accession = n.protein_id
		WHERE p.family = 'FAM01' AND a.affinity >= 7`
	b.Run("Uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := opt.Query(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
	// A statement-cached engine over the same data: T1Engines' dataset
	// (seed 1, 10 families of 20 proteins, 60 ligands).
	gen := datagen.DefaultConfig()
	gen.Seed = 1
	gen.NumFamilies = 10
	gen.ProteinsPerFamily = 20
	gen.NumLigands = 60
	gen.ActivityDensity = 0.3
	ds, err := datagen.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := integrate.NewImporter(db, source.NewBundle(ds, netsim.ProfileLAN, 1, true)).ImportAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Method = core.TreeNJKmer
	cfg.CacheBytes = 0
	cfg.QueryCacheEntries = 16
	cached, err := core.New(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cached.Query(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- F1: subtree query vs tree size ---

func BenchmarkF1SubtreeScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 50000} {
		for _, mode := range []struct {
			name string
			opts query.Options
		}{{"Naive", query.NaiveOptions()}, {"Optimized", query.DefaultOptions()}} {
			b.Run(fmt.Sprintf("leaves-%d/%s", n, mode.name), func(b *testing.B) {
				e, err := experiments.F1Engine(n, 1, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				// A fixed viewport-scale (~50 leaf) subtree query, as
				// in the F1 experiment: naive pays for the whole
				// tree, indexed for the result.
				clade := ""
				t := e.Tree()
				want := 50
				if want > n {
					want = n
				}
				bestDiff := n
				for i := 0; i < t.Len(); i++ {
					id := t.NodeAtPre(i)
					if t.Node(id).IsLeaf() {
						continue
					}
					diff := t.LeafCount(id) - want
					if diff < 0 {
						diff = -diff
					}
					if diff < bestDiff {
						bestDiff = diff
						clade = t.Node(id).Name
					}
				}
				q := fmt.Sprintf("SELECT pre FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '%s')", clade)
				if _, err := e.Query(context.Background(), q); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Query(context.Background(), q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- F2: interactive session under the cache ladder ---

func BenchmarkF2Session(b *testing.B) {
	for _, fc := range experiments.F2Configs() {
		b.Run(fc.Name, func(b *testing.B) {
			e, err := experiments.F2Engine(1000, 1, fc)
			if err != nil {
				b.Fatal(err)
			}
			trace := experiments.GenerateTrace(e.Tree(), 512, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node := trace[i%len(trace)]
				if _, _, err := e.OpenSubtree(context.Background(), node); err != nil {
					b.Fatal(err)
				}
				if fc.Prefetch {
					e.RunPrefetch(context.Background())
				}
			}
		})
	}
}

// --- F3: mobile transfer strategies (bytes per interaction) ---

func BenchmarkF3Strategies(b *testing.B) {
	e, err := experiments.F3Engine(1)
	if err != nil {
		b.Fatal(err)
	}
	trace := experiments.GenerateTrace(e.Tree(), 256, 3)
	for _, strat := range []mobile.Strategy{mobile.StrategyFull, mobile.StrategyLOD, mobile.StrategyLODDelta} {
		b.Run(strat.String(), func(b *testing.B) {
			e.ResetSession()
			server := mobile.NewServer(e)
			clientConn, serverConn := net.Pipe()
			defer clientConn.Close()
			defer serverConn.Close()
			go server.ServeConn(context.Background(), serverConn)
			c, err := mobile.Dial(clientConn, strat, 100)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Open(trace[i%len(trace)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.BytesDown)/float64(b.N), "bytes/interaction")
			c.Close()
		})
	}
}

// --- F4: end-to-end ablation (modelled 3G latency per interaction) ---

func BenchmarkF4Ablation(b *testing.B) {
	g3 := netsim.Profile3G
	g3.Jitter = 0
	g3.LossPct = 0
	for _, fc := range experiments.F4Configs() {
		b.Run(fc.Name, func(b *testing.B) {
			// One op = one full 120-interaction session; b.N stays
			// small because each session costs ~0.5s of compute.
			var last *metrics.Histogram
			for i := 0; i < b.N; i++ {
				hist, _, _, err := experiments.RunF4SessionSplit(context.Background(), 1000, 1, fc)
				if err != nil {
					b.Fatal(err)
				}
				last = hist
			}
			b.ReportMetric(float64(last.Mean().Microseconds())/1e3, "ms-mean-3G")
			b.ReportMetric(float64(last.Percentile(0.99).Microseconds())/1e3, "ms-p99-3G")
		})
	}
}

// --- T8: resilient sync under faults ---

// BenchmarkT8ResilientSync prices one mediator refresh cycle with the
// resilience stack on: the fresh path (full replace of every table)
// against the degraded path (breaker + last-good serving while a
// source is dark). Backoff sleeps ride the virtual clock, so the
// numbers isolate compute, not waiting.
func BenchmarkT8ResilientSync(b *testing.B) {
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 4
	gen.ProteinsPerFamily = 10
	gen.NumLigands = 20
	ds, err := datagen.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		outage bool
	}{{"fresh", false}, {"degraded", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := store.Open("")
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			bundle := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
			vclock := netsim.NewVirtualClock()
			for _, s := range bundle.All() {
				s.SetClock(vclock)
			}
			im := integrate.NewImporter(db, bundle)
			r := integrate.DefaultResilience()
			r.Retry = source.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, JitterSeed: 1}
			r.Clock = vclock
			r.Metrics = metrics.NewRegistry()
			im.EnableResilience(r)
			if _, err := im.Sync(context.Background()); err != nil {
				b.Fatal(err)
			}
			if mode.outage {
				bundle.Activities.SetFaultPlan(&source.FaultPlan{Windows: []source.FaultWindow{
					{Mode: source.FaultOutage, Start: 0, End: 1 << 62},
				}})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := im.Sync(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T9: overload protection ---

// BenchmarkT9Overload prices one full load-sweep cell of the T9
// discrete-event overload simulation per mode: the cost of deciding
// admission (deadline prediction, queue management) for ~8000
// arrivals at 2x saturation, with all waiting carried on the virtual
// clock.
func BenchmarkT9Overload(b *testing.B) {
	for _, mode := range []string{"unprotected", "shed-fifo"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.T9Mode(context.Background(), 1, mode, []float64{2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
