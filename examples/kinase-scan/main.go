// Kinase scan: the drug-discovery scenario from the poster's
// motivation. Given a screening dataset, find the clades of the
// protein tree enriched for strong binders of a lead compound, then
// drill into the best clade's proteins — phylogenetic context for
// selectivity analysis.
package main

import (
	"context"
	"fmt"
	"log"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

func main() {
	// A larger screen: 8 families ("kinase subfamilies"), dense
	// activity data.
	gen := datagen.DefaultConfig()
	gen.Seed = 42
	gen.NumFamilies = 8
	gen.ProteinsPerFamily = 12
	gen.NumLigands = 30
	gen.ActivityDensity = 0.5
	gen.FamilyAffinity = 0.9 // strong family structure in binding
	ds, err := datagen.Generate(gen)
	if err != nil {
		log.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	bundle := source.NewBundle(ds, netsim.ProfileWiFi, 42, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(context.Background()); err != nil {
		log.Fatal(err)
	}
	eng, err := core.New(db, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Pick the lead compound: the ligand with the single strongest
	// measured affinity anywhere in the screen.
	res, err := eng.QueryColumns(context.Background(), `SELECT ligand_id, MAX(affinity) AS best FROM activities
		GROUP BY ligand_id ORDER BY best DESC LIMIT 1`)
	if err != nil {
		log.Fatal(err)
	}
	lead := res.Dict.Value(&res.Batch.Cols[0], 0).S
	fmt.Printf("lead compound: %s (best pKd %.2f)\n\n", lead, res.Batch.Cols[1].Value(0).AsFloat())

	// Which clades are enriched for binders of the lead?
	clades, err := eng.FamilyEnrichment(context.Background(), lead, 6, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clades enriched for the lead compound:")
	for i, c := range clades {
		fmt.Printf("%2d. %-10s leaves=%-3d hits=%-3d mean pKd=%.2f\n",
			i+1, c.Clade, c.Leaves, c.Hits, c.MeanAff)
	}
	if len(clades) == 0 {
		log.Fatal("no enriched clades found")
	}

	// Drill into the top clade: its member proteins and what else
	// they bind (selectivity risk).
	best := clades[0].Clade
	fmt.Printf("\ndrilling into %s:\n", best)
	hits, err := eng.TopLigands(context.Background(), best, 5, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		marker := " "
		if h.LigandID == lead {
			marker = "*"
		}
		fmt.Printf(" %s %-10s mean pKd=%.2f over %d measurements\n",
			marker, h.LigandID, h.MeanAff, h.Count)
	}

	// Chemical neighborhood of the lead: analogues in the screen by
	// Tanimoto similarity (the scaffold-hopping question).
	leadRow, err := eng.QueryColumns(context.Background(), fmt.Sprintf("SELECT smiles FROM ligands WHERE ligand_id = '%s'", lead))
	if err != nil {
		log.Fatal(err)
	}
	analogues, err := eng.SimilarLigands(context.Background(), leadRow.Dict.Value(&leadRow.Batch.Cols[0], 0).S, 4, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nchemical analogues of the lead:")
	for _, a := range analogues {
		if a.LigandID == lead {
			continue
		}
		fmt.Printf("   %-10s sim=%.2f  %s\n", a.LigandID, a.Similarity, a.SMILES)
	}

	// Cross-source profile of one member protein.
	leaves, _, err := eng.OpenSubtree(context.Background(), best)
	if err != nil {
		log.Fatal(err)
	}
	var member string
	for _, v := range leaves {
		if v.IsLeaf {
			member = v.Name
			break
		}
	}
	prof, err := eng.ProteinProfile(context.Background(), member)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmember profile %s: family=%s organism=%s EC=%s, %d activities\n",
		prof.Accession, prof.Family, prof.Organism, prof.EC, len(prof.Activities))
}
