// drugtree is the DrugTree command-line tool: it generates synthetic
// datasets, integrates them from the simulated remote sources into a
// local database, builds the phylogenetic overlay, and runs DTQL
// queries.
//
// Usage:
//
//	drugtree init  -dir data -families 6 -per-family 15 -ligands 40
//	drugtree query -dir data 'SELECT family, COUNT(*) FROM proteins GROUP BY family'
//	drugtree query -dir data 'EXPLAIN SELECT ...'
//	drugtree tree  -dir data              # print the tree in Newick
//	drugtree top   -dir data -node clade_0 -k 5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/query"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// rootCtx is cancelled on SIGINT so a Ctrl-C aborts a running query
// instead of waiting for it to finish.
var rootCtx = context.Background()

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rootCtx = ctx
	var err error
	switch os.Args[1] {
	case "init":
		err = cmdInit(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "tree":
		err = cmdTree(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "similar":
		err = cmdSimilar(os.Args[2:])
	case "crumbs":
		err = cmdCrumbs(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "drugtree:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  drugtree init  -dir DIR [-seed N] [-families N] [-per-family N] [-ligands N]
  drugtree query -dir DIR [-naive] 'DTQL'
  drugtree tree  -dir DIR
  drugtree top   -dir DIR -node NAME [-k N]
  drugtree similar -dir DIR -smiles 'CCO' [-k N] [-threshold F]
  drugtree crumbs  -dir DIR -node NAME`)
}

func cmdCrumbs(args []string) error {
	fs := flag.NewFlagSet("crumbs", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	node := fs.String("node", "", "tree node name")
	fs.Parse(args)
	if *node == "" {
		return fmt.Errorf("crumbs: -node is required")
	}
	eng, db, err := openEngine(*dir, false)
	if err != nil {
		return err
	}
	defer db.Close()
	crumbs, err := eng.Breadcrumbs(rootCtx, *node)
	if err != nil {
		return err
	}
	for i, c := range crumbs {
		fmt.Printf("%s%s (leaves=%d, dist=%.3f)\n",
			strings.Repeat("  ", i), c.Name, c.LeafCount, c.RootDist)
	}
	return nil
}

func cmdSimilar(args []string) error {
	fs := flag.NewFlagSet("similar", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	smiles := fs.String("smiles", "", "query structure (SMILES)")
	k := fs.Int("k", 10, "number of hits")
	threshold := fs.Float64("threshold", 0.1, "minimum Tanimoto similarity")
	fs.Parse(args)
	if *smiles == "" {
		return fmt.Errorf("similar: -smiles is required")
	}
	eng, db, err := openEngine(*dir, false)
	if err != nil {
		return err
	}
	defer db.Close()
	hits, err := eng.SimilarLigands(rootCtx, *smiles, *k, *threshold)
	if err != nil {
		return err
	}
	for i, h := range hits {
		fmt.Printf("%2d. %-10s sim=%.3f  %s\n", i+1, h.LigandID, h.Similarity, h.SMILES)
	}
	if len(hits) == 0 {
		fmt.Println("no ligands above the similarity threshold")
	}
	return nil
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory (required)")
	seed := fs.Int64("seed", 1, "generator seed")
	families := fs.Int("families", 6, "number of protein families")
	perFamily := fs.Int("per-family", 15, "proteins per family")
	ligands := fs.Int("ligands", 40, "number of ligands")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("init: -dir is required")
	}
	gen := datagen.DefaultConfig()
	gen.Seed = *seed
	gen.NumFamilies = *families
	gen.ProteinsPerFamily = *perFamily
	gen.NumLigands = *ligands
	ds, err := datagen.Generate(gen)
	if err != nil {
		return err
	}
	db, err := store.Open(*dir)
	if err != nil {
		return err
	}
	defer db.Close()
	bundle := source.NewBundle(ds, netsim.Profile4G, *seed, true)
	st, err := integrate.NewImporter(db, bundle).ImportAll(rootCtx)
	if err != nil {
		return err
	}
	fmt.Printf("imported %d rows (%d rejected) from 4 sources; modelled network time %v\n",
		st.RowsImported, st.RowsRejected, st.Elapsed.Round(1e6))
	// Build the tree once to report it; tree_nodes is frozen and never
	// persisted, so every later open builds and publishes it again.
	eng, err := core.New(db, core.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Printf("built phylogenetic tree: %d nodes, %d leaves\n",
		eng.Tree().Len(), len(eng.Tree().Leaves()))
	if err := db.Checkpoint(); err != nil {
		return err
	}
	fmt.Printf("checkpointed to %s\n", *dir)
	return nil
}

// openEngine reopens an initialized database.
func openEngine(dir string, naive bool) (*core.Engine, *store.DB, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("-dir is required")
	}
	db, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	if naive {
		cfg.QueryOptions = query.NaiveOptions()
		cfg.CacheBytes = 0
	}
	eng, err := core.New(db, cfg)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return eng, db, nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	naive := fs.Bool("naive", false, "disable the optimizer (baseline engine)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("query: expected exactly one DTQL string")
	}
	eng, db, err := openEngine(*dir, *naive)
	if err != nil {
		return err
	}
	defer db.Close()
	res, err := eng.QueryColumns(rootCtx, fs.Arg(0))
	if err != nil {
		return err
	}
	if strings.HasPrefix(strings.TrimSpace(strings.ToUpper(fs.Arg(0))), "EXPLAIN") {
		fmt.Println(res.Plan)
		return nil
	}
	fmt.Print(query.FormatResult(res))
	fmt.Printf("stats: scanned=%d indexed=%d joined=%d\n",
		res.Stats.RowsScanned, res.Stats.RowsIndexed, res.Stats.RowsJoined)
	return nil
}

func cmdTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	fs.Parse(args)
	eng, db, err := openEngine(*dir, false)
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Println(eng.Tree().Newick())
	return nil
}

func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	node := fs.String("node", "", "tree node name (accession or clade_N)")
	k := fs.Int("k", 5, "number of ligands")
	fs.Parse(args)
	if *node == "" {
		return fmt.Errorf("top: -node is required")
	}
	eng, db, err := openEngine(*dir, false)
	if err != nil {
		return err
	}
	defer db.Close()
	hits, err := eng.TopLigands(rootCtx, *node, *k, 1)
	if err != nil {
		return err
	}
	sum, err := eng.SubtreeActivity(rootCtx, *node)
	if err != nil {
		return err
	}
	fmt.Printf("subtree %s: %d proteins, %d activities over %d ligands (mean pKd %.2f)\n",
		*node, sum.Proteins, sum.Activities, sum.DistinctLig, sum.MeanAff)
	for i, h := range hits {
		fmt.Printf("%2d. %-10s meanAff=%.2f maxAff=%.2f n=%d\n",
			i+1, h.LigandID, h.MeanAff, h.MaxAff, h.Count)
	}
	return nil
}
