package query

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// Parallel executor benchmarks. Worker counts 1 and 2 are fixed so
// the serial-vs-parallel ratio is comparable across machines; the
// GOMAXPROCS variant shows what the default Options deliver on the
// machine at hand. On a single-core runner the workers still exist but
// contend, so the speedup acceptance belongs on a multi-core box.

func benchParallelisms() []int {
	out := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		out = append(out, p)
	}
	return out
}

func BenchmarkParallelScan(b *testing.B) {
	cat := datagenCatalog(b, 5)
	// Residual-heavy scan over the multi-batch activities table.
	const q = "SELECT protein_id, affinity FROM activities WHERE affinity > 5.5 AND ligand_id != 'LIG0000'"
	for _, p := range benchParallelisms() {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			opts := DefaultOptions()
			opts.UseIndexes = false // force the seq-scan path
			opts.Parallelism = p
			eng := NewEngine(cat, opts)
			if _, err := eng.Query(context.Background(), q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelJoin(b *testing.B) {
	cat := datagenCatalog(b, 5)
	// Self-join on protein_id: thousands of build rows, fat probe.
	const q = `SELECT a.ligand_id, b.ligand_id FROM activities a
		JOIN activities b ON a.protein_id = b.protein_id
		WHERE a.affinity > b.affinity`
	for _, p := range benchParallelisms() {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Parallelism = p
			eng := NewEngine(cat, opts)
			if _, err := eng.Query(context.Background(), q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelAggregate(b *testing.B) {
	cat := datagenCatalog(b, 5)
	const q = "SELECT protein_id, COUNT(*), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities GROUP BY protein_id"
	for _, p := range benchParallelisms() {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			opts := DefaultOptions()
			opts.UseIndexes = false
			opts.Parallelism = p
			eng := NewEngine(cat, opts)
			if _, err := eng.Query(context.Background(), q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
