package datagen

import (
	"testing"

	"drugtree/internal/bio/align"
	"drugtree/internal/chem"
	"drugtree/internal/phylo"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Proteins) != len(d2.Proteins) || len(d1.Activities) != len(d2.Activities) {
		t.Fatal("same seed produced different dataset sizes")
	}
	for i := range d1.Proteins {
		if d1.Proteins[i].Residues != d2.Proteins[i].Residues {
			t.Fatalf("protein %d differs across runs", i)
		}
	}
	for i := range d1.Ligands {
		if d1.Ligands[i].SMILES != d2.Ligands[i].SMILES {
			t.Fatalf("ligand %d differs across runs", i)
		}
	}
}

func TestGenerateCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumFamilies = 3
	cfg.ProteinsPerFamily = 5
	cfg.NumLigands = 7
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Proteins) != 15 {
		t.Fatalf("proteins = %d, want 15", len(ds.Proteins))
	}
	if len(ds.Ligands) != 7 {
		t.Fatalf("ligands = %d, want 7", len(ds.Ligands))
	}
	if len(ds.Annotations) != 15 {
		t.Fatalf("annotations = %d, want 15", len(ds.Annotations))
	}
	// Density 0.25 over 15×7=105 pairs: expect roughly 26 ± wide.
	if len(ds.Activities) < 5 || len(ds.Activities) > 80 {
		t.Fatalf("activities = %d, implausible for density 0.25", len(ds.Activities))
	}
	// Unique protein IDs.
	seen := map[string]bool{}
	for _, p := range ds.Proteins {
		if seen[p.ID] {
			t.Fatalf("duplicate protein ID %s", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.NumFamilies = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero families accepted")
	}
	bad = DefaultConfig()
	bad.SeqLen = 5
	if _, err := Generate(bad); err == nil {
		t.Error("tiny SeqLen accepted")
	}
	bad = DefaultConfig()
	bad.ActivityDensity = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero density accepted")
	}
}

func TestGeneratedSMILESAllParse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 99
	cfg.NumLigands = 200
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ds.Ligands {
		m, err := chem.ParseSMILES(l.SMILES)
		if err != nil {
			t.Fatalf("ligand %s: %v", l.ID, err)
		}
		if m.Weight() <= 0 {
			t.Fatalf("ligand %s has weight %g", l.ID, m.Weight())
		}
		// And every generated molecule survives a write/parse round
		// trip losslessly (graph shape + formula + fingerprint).
		out, err := m.WriteSMILES()
		if err != nil {
			t.Fatalf("ligand %s write: %v", l.ID, err)
		}
		m2, err := chem.ParseSMILES(out)
		if err != nil {
			t.Fatalf("ligand %s re-parse %q: %v", l.ID, out, err)
		}
		if m.Formula() != m2.Formula() ||
			m.ComputeFingerprint().Tanimoto(m2.ComputeFingerprint()) != 1 {
			t.Fatalf("ligand %s round trip changed the molecule: %q → %q", l.ID, l.SMILES, out)
		}
	}
}

func TestFamilyStructureRecoverable(t *testing.T) {
	// Distances within a family must be smaller on average than
	// across families — the property that makes the phylogenetic
	// overlay meaningful.
	cfg := DefaultConfig()
	cfg.NumFamilies = 3
	cfg.ProteinsPerFamily = 6
	cfg.SeqLen = 120
	cfg.BranchMutations = 4
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scoring := align.BLOSUM62(8)
	var intra, inter float64
	var nIntra, nInter int
	for i := range ds.Proteins {
		for j := 0; j < i; j++ {
			d := align.Distance(ds.Proteins[i].Residues, ds.Proteins[j].Residues, scoring)
			if ds.Proteins[i].Family == ds.Proteins[j].Family {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if intra >= inter {
		t.Fatalf("intra-family distance %g not below inter-family %g", intra, inter)
	}
	// NJ over these distances must cluster families: check that for
	// one family, the LCA of its members contains no foreign leaves.
	names := make([]string, len(ds.Proteins))
	famOf := map[string]string{}
	for i, p := range ds.Proteins {
		names[i] = p.ID
		famOf[p.ID] = p.Family
	}
	m := phylo.ComputeDistances(names, func(i, j int) float64 {
		return align.Distance(ds.Proteins[i].Residues, ds.Proteins[j].Residues, scoring)
	})
	tree, err := phylo.NeighborJoining(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Index(); err != nil {
		t.Fatal(err)
	}
	// Root-independent recoverability check: every leaf's nearest
	// neighbor by tree path distance belongs to the same family.
	leaves := tree.Leaves()
	for _, a := range leaves {
		best := phylo.None
		bestD := 0.0
		for _, b := range leaves {
			if a == b {
				continue
			}
			d := pathDistance(tree, a, b)
			if best == phylo.None || d < bestD {
				best, bestD = b, d
			}
		}
		if famOf[tree.Node(a).Name] != famOf[tree.Node(best).Name] {
			t.Fatalf("leaf %s nearest neighbor %s is from a different family",
				tree.Node(a).Name, tree.Node(best).Name)
		}
	}
}

// pathDistance sums the branch lengths on the path a..b: both root
// distances less twice that of the first ancestor of a that is also b's.
func pathDistance(t *phylo.Tree, a, b phylo.NodeID) float64 {
	lca := a
	for !t.IsAncestor(lca, b) {
		lca = t.Node(lca).Parent
	}
	return t.RootDistance(a) + t.RootDistance(b) - 2*t.RootDistance(lca)
}

func TestActivityFamilyCorrelation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FamilyAffinity = 1.0
	cfg.ActivityDensity = 1.0
	cfg.NumLigands = 5
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	famOf := map[string]string{}
	for _, p := range ds.Proteins {
		famOf[p.ID] = p.Family
	}
	// With FamilyAffinity=1, within-(family,ligand) spread comes only
	// from the 0.3-σ noise: check std spread is small.
	groups := map[string][]float64{}
	for _, a := range ds.Activities {
		key := famOf[a.ProteinID] + "/" + a.LigandID
		groups[key] = append(groups[key], a.Affinity)
	}
	for key, vals := range groups {
		if len(vals) < 2 {
			continue
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 3 {
			t.Fatalf("group %s spread %g too wide for FamilyAffinity=1", key, hi-lo)
		}
	}
}

func TestTrueTreeRecorded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumFamilies = 3
	cfg.ProteinsPerFamily = 7
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TrueTree == nil {
		t.Fatal("no true tree recorded")
	}
	leaves := ds.TrueTree.Leaves()
	if len(leaves) != len(ds.Proteins) {
		t.Fatalf("true tree has %d leaves, %d proteins", len(leaves), len(ds.Proteins))
	}
	byID := map[string]bool{}
	for _, p := range ds.Proteins {
		byID[p.ID] = true
	}
	for _, l := range leaves {
		if !byID[ds.TrueTree.Node(l).Name] {
			t.Fatalf("true tree leaf %q is not a protein", ds.TrueTree.Node(l).Name)
		}
	}
	// Each family must be a clade of the true tree (rooted at the
	// global root, families hang off it by construction).
	famLeaves := map[string][]phylo.NodeID{}
	famOf := map[string]string{}
	for _, p := range ds.Proteins {
		famOf[p.ID] = p.Family
	}
	for _, l := range leaves {
		f := famOf[ds.TrueTree.Node(l).Name]
		famLeaves[f] = append(famLeaves[f], l)
	}
	for f, ls := range famLeaves {
		lca := ls[0]
		for _, l := range ls[1:] {
			for !ds.TrueTree.IsAncestor(lca, l) {
				lca = ds.TrueTree.Node(lca).Parent
			}
		}
		if got := ds.TrueTree.LeafCount(lca); got != len(ls) {
			t.Fatalf("family %s is not a clade: LCA spans %d leaves, family has %d", f, got, len(ls))
		}
	}
}

func TestReconstructionRecoversTrueTopology(t *testing.T) {
	// NJ over alignment distances must land close to the generating
	// topology (low normalized RF).
	cfg := DefaultConfig()
	cfg.NumFamilies = 3
	cfg.ProteinsPerFamily = 6
	cfg.SeqLen = 150
	cfg.BranchMutations = 5
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scoring := align.BLOSUM62(8)
	names := make([]string, len(ds.Proteins))
	for i, p := range ds.Proteins {
		names[i] = p.ID
	}
	m := phylo.ComputeDistances(names, func(i, j int) float64 {
		return align.Distance(ds.Proteins[i].Residues, ds.Proteins[j].Residues, scoring)
	})
	got, err := phylo.NeighborJoining(m)
	if err != nil {
		t.Fatal(err)
	}
	_, norm, err := phylo.RobinsonFoulds(ds.TrueTree, got)
	if err != nil {
		t.Fatal(err)
	}
	if norm > 0.35 {
		t.Fatalf("NJ reconstruction too far from truth: normalized RF = %.2f", norm)
	}
}

func TestRandomTopology(t *testing.T) {
	tr, err := RandomTopology(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Leaves()); got != 100 {
		t.Fatalf("leaves = %d, want 100", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic under the same seed.
	tr2, _ := RandomTopology(100, 7)
	if tr.Newick() != tr2.Newick() {
		t.Fatal("same seed produced different topology")
	}
	// Single leaf.
	tr3, err := RandomTopology(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr3.Leaves()) != 1 {
		t.Fatalf("1-leaf topology has %d leaves", len(tr3.Leaves()))
	}
	if _, err := RandomTopology(0, 1); err == nil {
		t.Fatal("zero leaves accepted")
	}
}

// TestActivitySkewZeroIsIdentity pins the rng-stream compatibility
// promise: ActivitySkew = 0 produces the same Activities, row for
// row, as a config without the knob — adding skew support must not
// perturb any existing seeded fixture.
func TestActivitySkewZeroIsIdentity(t *testing.T) {
	cfg := DefaultConfig()
	base, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ActivitySkew = 0
	same, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Activities) != len(same.Activities) {
		t.Fatalf("skew 0 changed activity count: %d vs %d", len(base.Activities), len(same.Activities))
	}
	for i := range base.Activities {
		if base.Activities[i] != same.Activities[i] {
			t.Fatalf("activity %d differs under skew 0: %+v vs %+v", i, base.Activities[i], same.Activities[i])
		}
	}
}

// TestActivitySkewConcentrates checks the zipf weighting does what the
// shard skew tests rely on: the first-quarter proteins hold a
// disproportionate share of activity rows, while the expected total
// stays in the same ballpark as the unskewed dataset.
func TestActivitySkewConcentrates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ActivityDensity = 0.4
	flat, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ActivitySkew = 1.5
	skewed, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for i, p := range skewed.Proteins {
		index[p.ID] = i
	}
	quarter := len(skewed.Proteins) / 4
	var head int
	for _, a := range skewed.Activities {
		if index[a.ProteinID] < quarter {
			head++
		}
	}
	if frac := float64(head) / float64(len(skewed.Activities)); frac < 0.5 {
		t.Fatalf("skew 1.5: first-quarter proteins hold %.0f%% of activities, want >= 50%%", frac*100)
	}
	// Renormalization keeps the totals in the same ballpark (within
	// 3x — probability capping at 1.0 truncates some of the zipf
	// head's mass, so exact parity is not expected).
	lo, hi := len(skewed.Activities), len(flat.Activities)
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo*3 < hi {
		t.Fatalf("skew changed activity volume too much: flat %d, skewed %d", len(flat.Activities), len(skewed.Activities))
	}
}
