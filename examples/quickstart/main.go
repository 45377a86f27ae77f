// Quickstart: generate a small synthetic dataset, integrate it from
// the simulated remote sources, build the DrugTree engine, and run a
// few DTQL queries — the five-minute tour of the system.
package main

import (
	"context"
	"fmt"
	"log"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/query"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

func main() {
	// 1. Generate a seeded synthetic dataset: 4 protein families
	//    diversified along simulated evolution, plus ligands and
	//    family-correlated binding activities.
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 4
	gen.ProteinsPerFamily = 10
	gen.NumLigands = 25
	ds, err := datagen.Generate(gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d proteins, %d ligands, %d activities\n",
		len(ds.Proteins), len(ds.Ligands), len(ds.Activities))

	// 2. Stand up the four simulated remote sources behind a 4G link
	//    model and integrate them into a local embedded store.
	db, err := store.Open("") // in-memory; pass a directory for WAL persistence
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	bundle := source.NewBundle(ds, netsim.Profile4G, 1, true)
	st, err := integrate.NewImporter(db, bundle).ImportAll(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("integrated %d rows; modelled network time %v\n",
		st.RowsImported, st.Elapsed.Round(1e6))

	// 3. Build the engine: phylogenetic tree from the sequences,
	//    materialized tree relation, optimizing query engine, cache.
	eng, err := core.New(db, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree: %d nodes, %d leaves, height %.3f\n\n",
		eng.Tree().Len(), len(eng.Tree().Leaves()), eng.Tree().Height())

	// 4. DTQL queries.
	for _, q := range []string{
		"SELECT family, COUNT(*) AS n FROM proteins GROUP BY family ORDER BY family",
		`SELECT p.accession, a.ligand_id, a.affinity
		 FROM proteins p JOIN activities a ON p.accession = a.protein_id
		 WHERE a.affinity >= 9 ORDER BY a.affinity DESC LIMIT 5`,
		fmt.Sprintf(`SELECT COUNT(*) AS members FROM tree_nodes
		 WHERE WITHIN_SUBTREE(pre, '%s') AND is_leaf = TRUE`, eng.Root().Name),
	} {
		fmt.Println(">", q)
		res, err := eng.QueryColumns(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(query.FormatResult(res))
		fmt.Println()
	}

	// 5. The overlay API: activity summarized along the phylogeny.
	sum, err := eng.SubtreeActivity(context.Background(), eng.Root().Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("whole-tree overlay: %d activities over %d ligands, mean pKd %.2f\n",
		sum.Activities, sum.DistinctLig, sum.MeanAff)
}
