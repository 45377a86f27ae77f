// Optimizer tour: show what each DTQL optimization does to a plan by
// printing EXPLAIN output with the optimizer progressively enabled —
// the "standards as well as novel mechanisms" of the poster, made
// visible.
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

func buildEngine(opts query.Options) *core.Engine {
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 5
	gen.ProteinsPerFamily = 10
	gen.NumLigands = 20
	ds, err := datagen.Generate(gen)
	if err != nil {
		log.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		log.Fatal(err)
	}
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(context.Background()); err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.QueryOptions = opts
	cfg.CacheBytes = 0
	eng, err := core.New(db, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return eng
}

func main() {
	steps := []struct {
		title string
		opts  query.Options
	}{
		{"naive: no optimizations", query.NaiveOptions()},
		{"+ predicate pushdown", query.Options{Pushdown: true}},
		{"+ index selection", query.Options{Pushdown: true, UseIndexes: true}},
		{"+ subtree-interval rewrite", query.Options{Pushdown: true, UseIndexes: true, SubtreeRewrite: true}},
		{"+ cost-based join ordering (full optimizer)", query.DefaultOptions()},
	}

	// Pick a clade name that exists across engines (same seed ⇒ same
	// tree): use the first engine to discover one.
	probe := buildEngine(query.DefaultOptions())
	clade := ""
	for i := 0; i < probe.Tree().Len(); i++ {
		children, _ := probe.Children(probe.Root().Name)
		if len(children) > 0 {
			clade = children[0].Name
		}
		break
	}

	q := fmt.Sprintf(`EXPLAIN SELECT p.accession, l.weight, a.affinity
	FROM activities a
	JOIN ligands l ON l.ligand_id = a.ligand_id
	JOIN proteins p ON p.accession = a.protein_id
	JOIN tree_nodes t ON t.name = p.accession
	WHERE WITHIN_SUBTREE(t.pre, '%s') AND a.affinity >= 7 AND p.family = 'FAM01'`, clade)

	fmt.Println("query:")
	fmt.Println(q)
	fmt.Println()
	for _, step := range steps {
		eng := buildEngine(step.opts)
		res, err := eng.QueryColumns(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n%s\n\n", step.title, res.Plan)
	}
}
