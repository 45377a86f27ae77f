package experiments

import (
	"context"
	"fmt"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// F1TreeSizes are the leaf counts swept by the scaling figure.
var F1TreeSizes = []int{100, 500, 1000, 5000, 10000, 50000}

// F1Engine builds a navigation-only engine over a synthetic topology
// of n leaves (no protein data needed).
func F1Engine(n int, seed int64, opts query.Options) (*core.Engine, error) {
	tree, err := datagen.RandomTopology(n, seed)
	if err != nil {
		return nil, err
	}
	db, err := store.Open("")
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.QueryOptions = opts
	cfg.CacheBytes = 0 // caching is F2's subject
	cfg.EnablePrefetch = false
	return core.NewWithTree(db, tree, cfg)
}

// f1PickClades selects subtree roots of roughly fixed absolute size
// (≈25 and ≈50 leaves). Fixed-size targets model the interactive
// reality — a phone viewport shows a bounded clade regardless of how
// big the whole tree is — and make the naive/optimized asymptotics
// visible: the naive engine pays for the whole tree, the indexed
// engine only for the result.
func f1PickClades(t *phylo.Tree) []string {
	total := len(t.Leaves())
	var out []string
	for _, want := range []int{25, 50} {
		if want > total {
			want = total
		}
		best, bestDiff := t.Root(), total
		for id := range phylo.NodeID(t.Len()) {
			if t.Node(id).IsLeaf() {
				continue
			}
			diff := t.LeafCount(id) - want
			if diff < 0 {
				diff = -diff
			}
			if diff < bestDiff {
				best, bestDiff = id, diff
			}
		}
		out = append(out, t.Node(best).Name)
	}
	return out
}

// RunF1 sweeps tree size and measures the subtree-retrieval query
// under the naive engine (sequential scan + filter) and the optimized
// engine (interval rewrite + B+-tree range scan). This is the poster's
// central "lag" curve.
func RunF1(ctx context.Context, seed int64) (*Report, error) {
	rep := &Report{
		ID:     "F1",
		Title:  "Subtree-query latency vs tree size (series: naive, optimized)",
		Header: []string{"leaves", "nodes", "naive", "optimized", "speedup"},
	}
	for _, n := range F1TreeSizes {
		naive, err := F1Engine(n, seed, query.NaiveOptions())
		if err != nil {
			return nil, err
		}
		opt, err := F1Engine(n, seed, query.DefaultOptions())
		if err != nil {
			return nil, err
		}
		clades := f1PickClades(naive.Tree())
		reps := 5
		if n <= 1000 {
			reps = 20
		}
		var dn, do time.Duration
		for _, clade := range clades {
			q := fmt.Sprintf("SELECT pre, name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '%s')", clade)
			d1, err := MeasureQuery(ctx, naive, q, reps)
			if err != nil {
				return nil, err
			}
			d2, err := MeasureQuery(ctx, opt, q, reps)
			if err != nil {
				return nil, err
			}
			dn += d1
			do += d2
		}
		dn /= time.Duration(len(clades))
		do /= time.Duration(len(clades))
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprint(naive.Tree().Len()),
			fmtDur(float64(dn.Nanoseconds()) / 1e3),
			fmtDur(float64(do.Nanoseconds()) / 1e3),
			fmt.Sprintf("%.1fx", float64(dn)/float64(do)),
		})
	}
	rep.Notes = "expectation: for a fixed-size (viewport-scale) subtree, naive latency grows ~linearly with tree size while the indexed engine stays near-flat, so the speedup widens with scale"
	return rep, nil
}
