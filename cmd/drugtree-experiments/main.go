// drugtree-experiments regenerates the DrugTree evaluation: every table
// (T1–T14) and figure (F1–F4) documented in EXPERIMENTS.md.
//
// Usage:
//
//	drugtree-experiments                 # run everything
//	drugtree-experiments -exp F3         # run one experiment
//	drugtree-experiments -exp F3 -csv    # emit the figure series as CSV
//	drugtree-experiments -seed 7         # change the dataset seed
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"drugtree/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment ID to run (T1..T14, F1..F4); empty runs all")
	seed := flag.Int64("seed", 1, "dataset seed")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runners := experiments.All()
	if *exp != "" {
		r, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}
	failed := false
	for _, r := range runners {
		start := time.Now()
		rep, err := r.Run(ctx, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			failed = true
			continue
		}
		if *csv {
			fmt.Print(rep.CSV())
		} else {
			fmt.Print(rep.Render())
			fmt.Printf("   (regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	if failed {
		os.Exit(1)
	}
}
