// Package datagen generates the seeded synthetic datasets every
// DrugTree experiment runs on, substituting for the proprietary
// protein/ligand screening data the original system consumed.
//
// Protein families are produced by simulating evolution: each family
// has an ancestor sequence diversified along a random Yule-process
// tree with per-branch mutations, so a distance-based tree built from
// the generated sequences recovers the family structure — exactly the
// property the "protein-motivated phylogenetic tree" of the paper
// depends on. Ligands are assembled from a SMILES fragment grammar
// (guaranteed parseable by internal/chem), and binding affinities are
// family-correlated with noise, so subtree-level aggregation queries
// have signal to find.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"drugtree/internal/bio/seq"
	"drugtree/internal/chem"
	"drugtree/internal/phylo"
)

// Config controls dataset generation. The zero value is not valid;
// use DefaultConfig and override.
type Config struct {
	Seed              int64
	NumFamilies       int
	ProteinsPerFamily int
	SeqLen            int
	// BranchMutations is the expected number of substitutions applied
	// per tree edge while diversifying a family.
	BranchMutations int
	// FamilyDivergence is the number of substitutions separating each
	// family's ancestor from the shared root ancestor. All families
	// share ancestry (as the proteins in one real analysis do), so
	// inter-family distances stay informative rather than saturating.
	// 0 selects the default of SeqLen/5.
	FamilyDivergence int
	// NumLigands is the number of distinct ligands.
	NumLigands int
	// ActivityDensity is the fraction of (protein, ligand) pairs with
	// a measured activity, in (0, 1].
	ActivityDensity float64
	// FamilyAffinity controls how strongly affinity correlates with
	// family (0 = none, 1 = fully family-determined).
	FamilyAffinity float64
}

// DefaultConfig returns the configuration used by the quickstart
// example and small tests.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		NumFamilies:       4,
		ProteinsPerFamily: 12,
		SeqLen:            240,
		BranchMutations:   6,
		NumLigands:        40,
		ActivityDensity:   0.25,
		FamilyAffinity:    0.8,
	}
}

// Ligand is one synthetic compound.
type Ligand struct {
	ID      string
	Name    string
	SMILES  string
	Weight  float64
	Formula string
}

// Activity is one measured protein–ligand binding record. Affinity is
// a pKd-style value: higher is stronger binding.
type Activity struct {
	ProteinID string
	LigandID  string
	Affinity  float64
	Assay     string
}

// Annotation is auxiliary per-protein metadata served by the
// annotation source.
type Annotation struct {
	ProteinID string
	Organism  string
	EC        string
	Keywords  string
}

// Dataset is a complete generated dataset plus the generating truth:
// family labels live on the proteins, and TrueTree is the exact
// topology the sequences were evolved along (families hanging off a
// common root), against which reconstruction quality is scored
// (experiment T5).
type Dataset struct {
	Config      Config
	Proteins    []*seq.Protein
	Ligands     []Ligand
	Activities  []Activity
	Annotations []Annotation
	TrueTree    *phylo.Tree
}

// Generate builds a dataset from the configuration.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.NumFamilies < 1 || cfg.ProteinsPerFamily < 1 {
		return nil, fmt.Errorf("datagen: need at least one family and one protein per family")
	}
	if cfg.SeqLen < 20 {
		return nil, fmt.Errorf("datagen: SeqLen %d too short", cfg.SeqLen)
	}
	if cfg.ActivityDensity <= 0 || cfg.ActivityDensity > 1 {
		return nil, fmt.Errorf("datagen: ActivityDensity %g out of (0,1]", cfg.ActivityDensity)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Slices are built at their length; the drawn activities are cut to it.
	n := cfg.NumFamilies * cfg.ProteinsPerFamily
	ds := &Dataset{Config: cfg, Proteins: make([]*seq.Protein, 0, n), Annotations: make([]Annotation, 0, n)}
	ds.Ligands = make([]Ligand, 0, max(cfg.NumLigands, 0))

	trueTree := phylo.NewTree()
	edgeLen := float64(cfg.BranchMutations) / float64(cfg.SeqLen)
	trueRoot, err := trueTree.AddNode("", phylo.None, 0)
	if err != nil {
		return nil, err
	}
	divergence := cfg.FamilyDivergence
	if divergence == 0 {
		divergence = cfg.SeqLen / 5
	}
	rootAncestor := randomSequence(rng, cfg.SeqLen)
	pid := 0
	for f := 0; f < cfg.NumFamilies; f++ {
		family := fmt.Sprintf("FAM%02d", f)
		ancestor := mutate(rng, rootAncestor, divergence)
		members, parents, leaves := evolveFamily(rng, ancestor, cfg.ProteinsPerFamily, cfg.BranchMutations)
		ids := make([]string, len(members))
		for i, m := range members {
			p := &seq.Protein{
				ID:       fmt.Sprintf("DT%05d", pid),
				Name:     fmt.Sprintf("synthetic protein %d", pid),
				Family:   family,
				Residues: m,
			}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			ds.Proteins = append(ds.Proteins, p)
			ids[i] = p.ID
			pid++
		}
		if err := graftFamily(trueTree, trueRoot, family, parents, leaves, ids, edgeLen); err != nil {
			return nil, err
		}
	}
	if err := trueTree.Validate(); err != nil {
		return nil, fmt.Errorf("datagen: true tree invalid: %w", err)
	}
	if err := trueTree.Index(); err != nil {
		return nil, err
	}
	ds.TrueTree = trueTree

	for l := 0; l < cfg.NumLigands; l++ {
		smiles := randomSMILES(rng)
		mol, err := chem.ParseSMILES(smiles)
		if err != nil {
			return nil, fmt.Errorf("datagen: generated invalid SMILES %q: %w", smiles, err)
		}
		ds.Ligands = append(ds.Ligands, Ligand{
			ID:      fmt.Sprintf("LIG%04d", l),
			Name:    fmt.Sprintf("compound-%04d", l),
			SMILES:  smiles,
			Weight:  mol.Weight(),
			Formula: mol.Formula(),
		})
	}

	// Family-correlated affinities: each (family, ligand) pair has a
	// latent base affinity; members deviate by noise.
	base := make(map[string]float64)
	assays := []string{"Kd", "Ki", "IC50"}
	for _, p := range ds.Proteins {
		for _, l := range ds.Ligands {
			if rng.Float64() >= cfg.ActivityDensity {
				continue
			}
			key := p.Family + "/" + l.ID
			b, ok := base[key]
			if !ok {
				b = 4 + rng.Float64()*6 // pKd in [4,10)
				base[key] = b
			}
			noiseScale := 1 - cfg.FamilyAffinity
			aff := b*cfg.FamilyAffinity + (4+rng.Float64()*6)*noiseScale + rng.NormFloat64()*0.3
			if aff < 0 {
				aff = 0
			}
			ds.Activities = append(ds.Activities, Activity{
				ProteinID: p.ID,
				LigandID:  l.ID,
				Affinity:  aff,
				Assay:     assays[rng.Intn(len(assays))],
			})
		}
	}

	organisms := []string{"H. sapiens", "M. musculus", "E. coli", "S. cerevisiae", "D. melanogaster"}
	keywords := []string{"kinase", "hydrolase", "transferase", "ligase", "oxidoreductase", "isomerase"}
	for _, p := range ds.Proteins {
		ds.Annotations = append(ds.Annotations, Annotation{
			ProteinID: p.ID,
			Organism:  organisms[rng.Intn(len(organisms))],
			EC:        fmt.Sprintf("%d.%d.%d.%d", 1+rng.Intn(6), 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(200)),
			Keywords:  keywords[rng.Intn(len(keywords))],
		})
	}
	ds.Activities = append(make([]Activity, 0, len(ds.Activities)), ds.Activities...)
	return ds, nil
}

// randomSequence draws a uniform random protein sequence.
func randomSequence(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = seq.AminoAcids[rng.Intn(20)]
	}
	return string(b)
}

// evolveFamily diversifies ancestor into n member sequences along a
// random Yule tree: the member set starts as {ancestor}; repeatedly a
// random member is duplicated and both copies accumulate independent
// branch mutations. The generating topology is recorded so
// reconstruction quality can be scored against it: parents[v] is the
// parent of forest node v (-1 for the family root), and leaves[i] is
// the forest node of final member i.
func evolveFamily(rng *rand.Rand, ancestor string, n, branchMutations int) (members []string, parents []int, leaves []int) {
	members = []string{mutate(rng, ancestor, branchMutations)}
	parents = []int{-1}
	memberNode := []int{0} // forest node of each live member
	for len(members) < n {
		i := rng.Intn(len(members))
		parent := memberNode[i]
		left := mutate(rng, members[i], branchMutations)
		right := mutate(rng, members[i], branchMutations)
		lNode := len(parents)
		parents = append(parents, parent)
		rNode := len(parents)
		parents = append(parents, parent)
		members[i] = left
		memberNode[i] = lNode
		members = append(members, right)
		memberNode = append(memberNode, rNode)
	}
	return members, parents, memberNode
}

// graftFamily converts one family's recorded forest into tree nodes
// hanging off the global root. Forest-internal nodes with exactly one
// child in the final topology cannot occur (every split makes two),
// so the conversion is a direct parent-pointer walk.
func graftFamily(t *phylo.Tree, globalRoot phylo.NodeID, family string, parents []int, leaves []int, ids []string, edgeLen float64) error {
	// children lists from parent pointers.
	children := make([][]int, len(parents))
	rootNode := -1
	for v, p := range parents {
		if p < 0 {
			rootNode = v
			continue
		}
		children[p] = append(children[p], v)
	}
	if rootNode < 0 {
		return fmt.Errorf("datagen: family %s forest has no root", family)
	}
	leafName := make(map[int]string, len(leaves))
	for i, v := range leaves {
		leafName[v] = ids[i]
	}
	var convert func(v int, parent phylo.NodeID) error
	convert = func(v int, parent phylo.NodeID) error {
		name := leafName[v]
		id, err := t.AddNode(name, parent, edgeLen)
		if err != nil {
			return err
		}
		for _, c := range children[v] {
			if err := convert(c, id); err != nil {
				return err
			}
		}
		return nil
	}
	return convert(rootNode, globalRoot)
}

// mutate applies approximately k random substitutions.
func mutate(rng *rand.Rand, s string, k int) string {
	b := []byte(s)
	for i := 0; i < k; i++ {
		pos := rng.Intn(len(b))
		b[pos] = seq.AminoAcids[rng.Intn(20)]
	}
	return string(b)
}

// SMILES fragment grammar: chains of heavy atoms with branches,
// optional ring fragments. Everything emitted parses under
// chem.ParseSMILES.
var (
	chainAtoms = []string{"C", "C", "C", "N", "O", "S"}
	ringFrags  = []string{"c1ccccc1", "C1CCCCC1", "c1ccncc1", "C1CCNCC1", "c1ccsc1"}
	capAtoms   = []string{"C", "O", "N", "F", "Cl", "Br"}
)

// randomSMILES assembles a random drug-like molecule.
func randomSMILES(rng *rand.Rand) string {
	var b strings.Builder
	// Optional leading ring.
	if rng.Float64() < 0.6 {
		b.WriteString(ringFrags[rng.Intn(len(ringFrags))])
	} else {
		b.WriteString("C")
	}
	// Chain with branches.
	chainLen := 2 + rng.Intn(6)
	for i := 0; i < chainLen; i++ {
		b.WriteString(chainAtoms[rng.Intn(len(chainAtoms))])
		if rng.Float64() < 0.3 {
			b.WriteString("(")
			b.WriteString(capAtoms[rng.Intn(len(capAtoms))])
			b.WriteString(")")
		}
		if rng.Float64() < 0.15 {
			b.WriteString("(=O)")
		}
	}
	// Optional trailing ring.
	if rng.Float64() < 0.4 {
		b.WriteString(ringFrags[rng.Intn(len(ringFrags))])
	} else {
		b.WriteString(capAtoms[rng.Intn(len(capAtoms))])
	}
	return b.String()
}

// RandomTopology generates a random indexed tree with n leaves by the
// Yule process (random leaf splits), used by scaling experiments where
// building a tree from sequences would dominate runtime. Leaf names
// are L00000..; branch lengths are exponential-ish draws.
func RandomTopology(n int, seed int64) (*phylo.Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("datagen: need at least one leaf")
	}
	rng := rand.New(rand.NewSource(seed))
	t := phylo.NewTree()
	root, err := t.AddNode("", phylo.None, 0)
	if err != nil {
		return nil, err
	}
	leaves := []phylo.NodeID{root}
	for len(leaves) < n {
		i := rng.Intn(len(leaves))
		parent := leaves[i]
		l1, err := t.AddNode("", parent, 0.05+rng.ExpFloat64()*0.1)
		if err != nil {
			return nil, err
		}
		l2, err := t.AddNode("", parent, 0.05+rng.ExpFloat64()*0.1)
		if err != nil {
			return nil, err
		}
		leaves[i] = l1
		leaves = append(leaves, l2)
	}
	for i, id := range leaves {
		if err := t.SetName(id, fmt.Sprintf("L%05d", i)); err != nil {
			return nil, err
		}
	}
	if err := t.Index(); err != nil {
		return nil, err
	}
	return t, nil
}
