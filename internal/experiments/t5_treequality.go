package experiments

import (
	"context"
	"fmt"
	"time"

	"drugtree/internal/bio/align"
	"drugtree/internal/bio/seq"
	"drugtree/internal/datagen"
	"drugtree/internal/phylo"
)

// RunT5 scores the tree-construction methods core.TreeMethod exposes,
// plus UPGMA as the fast, rough reference, against the generating
// topology: normalized Robinson–Foulds
// distance (0 = exact recovery) and construction time. This is the
// quality side of the speed/accuracy trade-off the engine's method
// auto-selection makes.
func RunT5(ctx context.Context, seed int64) (*Report, error) {
	_ = ctx // tree building is in-memory; ctx kept for the Runner contract
	gen := datagen.DefaultConfig()
	gen.Seed = seed
	gen.NumFamilies = 8
	gen.ProteinsPerFamily = 15
	gen.SeqLen = 200
	gen.BranchMutations = 5
	ds, err := datagen.Generate(gen)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ds.Proteins))
	for i, p := range ds.Proteins {
		names[i] = p.ID
	}

	type method struct {
		name  string
		build func() (*phylo.Tree, error)
	}
	scoring := align.BLOSUM62(8)
	alignDist := func() *phylo.DistanceMatrix {
		return phylo.ComputeDistances(names, func(i, j int) float64 {
			return align.DistanceBanded(ds.Proteins[i].Residues, ds.Proteins[j].Residues, scoring, 32)
		})
	}
	kmerDist := func() *phylo.DistanceMatrix {
		profiles := make([]*seq.KmerProfile, len(ds.Proteins))
		for i, p := range ds.Proteins {
			profiles[i], _ = seq.NewKmerProfile(p.Residues, 4)
		}
		return phylo.ComputeDistances(names, func(i, j int) float64 {
			return profiles[i].Cosine(profiles[j])
		})
	}
	methods := []method{
		{"nj-align", func() (*phylo.Tree, error) { return phylo.NeighborJoining(alignDist()) }},
		{"nj-kmer", func() (*phylo.Tree, error) { return phylo.NeighborJoining(kmerDist()) }},
		{"upgma-kmer", func() (*phylo.Tree, error) { return phylo.UPGMA(kmerDist()) }},
	}

	rep := &Report{
		ID: "T5",
		Title: fmt.Sprintf("Tree reconstruction quality vs generating topology (%d proteins, %d families)",
			len(ds.Proteins), gen.NumFamilies),
		Header: []string{"method", "normalized RF", "exact splits", "build time"},
	}
	trueSplits, err := phylo.Bipartitions(ds.TrueTree)
	if err != nil {
		return nil, err
	}
	for _, m := range methods {
		start := clock.Now()
		tree, err := m.build()
		if err != nil {
			return nil, fmt.Errorf("T5 %s: %w", m.name, err)
		}
		elapsed := clock.Now() - start
		_, norm, err := phylo.RobinsonFoulds(ds.TrueTree, tree)
		if err != nil {
			return nil, err
		}
		got, err := phylo.Bipartitions(tree)
		if err != nil {
			return nil, err
		}
		shared := 0
		for s := range got {
			if trueSplits[s] {
				shared++
			}
		}
		rep.Rows = append(rep.Rows, []string{
			m.name,
			fmt.Sprintf("%.3f", norm),
			fmt.Sprintf("%d/%d", shared, len(trueSplits)),
			fmt.Sprint(elapsed.Round(time.Millisecond)),
		})
	}
	rep.Notes = "expectation: nj-align is most accurate; nj-kmer trades some splits for an order-of-magnitude faster build (the engine auto-selects it above 300 proteins); upgma is fastest and roughest"
	return rep, nil
}
