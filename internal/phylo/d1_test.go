package phylo_test

import (
	"sort"
	"testing"

	"drugtree/internal/bio/seq"
	"drugtree/internal/datagen"
	"drugtree/internal/phylo"
)

// TestNeighborJoiningD1MatchesOracle builds the k-mer distance matrix
// core.New builds for dataset D1 (the repository benchmark's settings:
// 16 families × 50 proteins × 240 residues, k = 4, proteins in
// accession order) and holds NeighborJoining to the serial full-matrix
// loop bit for bit.
func TestNeighborJoiningD1MatchesOracle(t *testing.T) {
	if testing.Short() || phylo.RaceEnabled {
		t.Skip("800-taxon oracle build")
	}
	cfg := datagen.DefaultConfig()
	cfg.Seed = 1
	cfg.NumFamilies = 16
	cfg.ProteinsPerFamily = 50
	cfg.SeqLen = 240
	cfg.NumLigands = 200
	cfg.ActivityDensity = 0.3
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	proteins := ds.Proteins
	sort.Slice(proteins, func(i, j int) bool { return proteins[i].ID < proteins[j].ID })
	names := make([]string, len(proteins))
	profiles := make([]*seq.KmerProfile, len(proteins))
	for i, p := range proteins {
		names[i] = p.ID
		if profiles[i], err = seq.NewKmerProfile(p.Residues, 4); err != nil {
			t.Fatal(err)
		}
	}
	m := phylo.ComputeDistances(names, seq.CosineRows(profiles))
	want, wantErr, panicked := phylo.NJOracleOutcome(m)
	if panicked || wantErr != nil {
		t.Fatalf("oracle: panicked %v, error %v", panicked, wantErr)
	}
	got, err := phylo.NeighborJoining(m)
	if d := phylo.SameOutcome(got, err, want, wantErr); d != nil {
		t.Fatal(d)
	}
}
