package query

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkParallelJoin times the hash join, the one operator with a
// parallel path (experiment T7), with its probe on 1, 2 and GOMAXPROCS
// workers. Worker counts 1 and 2 are fixed so the ratio is comparable
// across machines; the GOMAXPROCS variant is what an engine runs at on
// the machine at hand. On a single-core runner the workers still exist
// but contend, so the speedup belongs on a multi-core box.
func BenchmarkParallelJoin(b *testing.B) {
	cat := datagenCatalog(b, 5)
	// Self-join on protein_id: thousands of build rows, fat probe.
	const q = `SELECT a.ligand_id, b.ligand_id FROM activities a
		JOIN activities b ON a.protein_id = b.protein_id
		WHERE a.affinity > b.affinity`
	workers := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		workers = append(workers, p)
	}
	for _, p := range workers {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			eng := parallelConfig(p).engine(cat)
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
