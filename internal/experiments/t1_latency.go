package experiments

import (
	"context"
	"fmt"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/query"
)

// t1Classes are the five interactive query classes the poster's
// "lags" manifest in. Each template receives dataset-specific
// arguments at run time.
type t1Class struct {
	name string
	// mk builds the DTQL for the class given an engine.
	mk func(e *core.Engine) string
}

func t1QueryClasses() []t1Class {
	return []t1Class{
		{"point lookup", func(e *core.Engine) string {
			return "SELECT * FROM proteins WHERE accession = 'DT00007'"
		}},
		{"subtree retrieval", func(e *core.Engine) string {
			clade := t1MidClade(e)
			return fmt.Sprintf("SELECT pre, name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '%s')", clade)
		}},
		{"overlay join", func(e *core.Engine) string {
			clade := t1MidClade(e)
			return fmt.Sprintf(`SELECT t.name, a.affinity FROM tree_nodes t
				JOIN activities a ON t.name = a.protein_id
				WHERE WITHIN_SUBTREE(t.pre, '%s') AND t.is_leaf = TRUE`, clade)
		}},
		{"top-k affinity", func(e *core.Engine) string {
			return `SELECT protein_id, ligand_id, affinity FROM activities
				WHERE affinity >= 8 ORDER BY affinity DESC LIMIT 10`
		}},
		{"3-source integration", func(e *core.Engine) string {
			return `SELECT p.accession, n.organism, l.weight, a.affinity
				FROM proteins p
				JOIN activities a ON p.accession = a.protein_id
				JOIN ligands l ON a.ligand_id = l.ligand_id
				JOIN annotations n ON p.accession = n.protein_id
				WHERE p.family = 'FAM01' AND a.affinity >= 7`
		}},
	}
}

// t1MidClade picks a mid-sized clade (≈ a family subtree) so the
// subtree queries are neither trivial nor the whole tree.
func t1MidClade(e *core.Engine) string {
	t := e.Tree()
	total := len(t.Leaves())
	best := t.Root()
	bestDiff := total
	for i := 0; i < t.Len(); i++ {
		id := t.NodeAtPre(i)
		if t.Node(id).IsLeaf() {
			continue
		}
		lc := t.LeafCount(id)
		diff := lc - total/4
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			best = id
		}
	}
	return t.Node(best).Name
}

// MeasureQuery runs a query repeatedly and returns the mean latency
// read from the experiment clock.
func MeasureQuery(ctx context.Context, e *core.Engine, dtql string, reps int) (time.Duration, error) {
	// Warm once (and validate).
	if _, err := e.QueryColumns(ctx, dtql); err != nil {
		return 0, err
	}
	start := clock.Now()
	for i := 0; i < reps; i++ {
		if _, err := e.QueryColumns(ctx, dtql); err != nil {
			return 0, err
		}
	}
	return (clock.Now() - start) / time.Duration(reps), nil
}

// T1Engines builds the naive/optimized engine pair over the same
// dataset (shared helper with bench_test.go).
func T1Engines(ctx context.Context, seed int64) (naive, opt *core.Engine, err error) {
	naiveCfg := core.Config{
		Method:       core.TreeNJKmer,
		QueryOptions: query.NaiveOptions(),
	}
	optCfg := core.DefaultConfig()
	optCfg.Method = core.TreeNJKmer
	optCfg.CacheBytes = 0 // isolate the optimizer; caching is F2's subject
	naive, _, err = buildStandardEngine(ctx, seed, 10, 20, 60, naiveCfg)
	if err != nil {
		return nil, nil, err
	}
	opt, _, err = buildStandardEngine(ctx, seed, 10, 20, 60, optCfg)
	if err != nil {
		return nil, nil, err
	}
	return naive, opt, nil
}

// RunT1 measures the five query classes on the naive and optimized
// engines over a 200-protein dataset.
func RunT1(ctx context.Context, seed int64) (*Report, error) {
	naive, opt, err := T1Engines(ctx, seed)
	if err != nil {
		return nil, err
	}
	// Both sides run the one batch executor — the naive side only lacks
	// the optimizer passes — so the cheap classes sit tens of
	// microseconds apart: the best of five 20-run means keeps one
	// scheduler hiccup from deciding a class.
	const reps, rounds = 20, 5
	best := func(e *core.Engine, dtql string) (time.Duration, error) {
		var min time.Duration
		for r := 0; r < rounds; r++ {
			d, err := MeasureQuery(ctx, e, dtql, reps)
			if err != nil {
				return 0, err
			}
			if r == 0 || d < min {
				min = d
			}
		}
		return min, nil
	}
	rep := &Report{
		ID:     "T1",
		Title:  "Query latency by class (200 proteins, 10 families, best of 5 means of 20 runs)",
		Header: []string{"query class", "naive", "optimized", "speedup"},
	}
	worstClass, bestSpeedup := "", 0.0
	for _, cls := range t1QueryClasses() {
		dn, err := best(naive, cls.mk(naive))
		if err != nil {
			return nil, fmt.Errorf("T1 %s naive: %w", cls.name, err)
		}
		do, err := best(opt, cls.mk(opt))
		if err != nil {
			return nil, fmt.Errorf("T1 %s optimized: %w", cls.name, err)
		}
		speedup := float64(dn) / float64(do)
		if speedup > bestSpeedup {
			bestSpeedup, worstClass = speedup, cls.name
		}
		rep.Rows = append(rep.Rows, []string{
			cls.name,
			fmtDur(float64(dn.Nanoseconds()) / 1e3),
			fmtDur(float64(do.Nanoseconds()) / 1e3),
			fmt.Sprintf("%.1fx", speedup),
		})
	}
	rep.Notes = fmt.Sprintf("expectation: optimized wins every class; largest factor here: %s (%.1fx)",
		worstClass, bestSpeedup)
	return rep, nil
}
