package query

import (
	"context"
	"testing"
)

// Row-vs-vectorized engine benchmarks at the query layer. Each shape
// runs both engines over the same catalog so the ratio isolates the
// iteration model; the scan/filter shapes are the ones the vectorized
// engine is expected to win (see experiments T10), the point lookup is
// the parity check.

func benchEngines() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"row", rowOptions(serialOptions())},
		{"vec", serialOptions()},
	}
}

func benchBothEngines(b *testing.B, q string) {
	cat := datagenCatalog(b, 5)
	for _, tc := range benchEngines() {
		b.Run(tc.name, func(b *testing.B) {
			eng := NewEngine(cat, tc.opts)
			if _, err := eng.Query(context.Background(), q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVecPointLookup(b *testing.B) {
	benchBothEngines(b, "SELECT * FROM proteins WHERE accession = 'DT00007'")
}

func BenchmarkVecScanFilter(b *testing.B) {
	// Arithmetic left-hand side keeps the conjunct out of the index
	// access path: both engines run the full sequential scan.
	benchBothEngines(b, "SELECT protein_id, affinity FROM activities WHERE affinity * 2.0 > 18.0")
}

func BenchmarkVecLikeFilter(b *testing.B) {
	benchBothEngines(b, "SELECT protein_id, ligand_id FROM activities WHERE ligand_id LIKE 'LIG001%'")
}

func BenchmarkVecHashJoin(b *testing.B) {
	benchBothEngines(b, `SELECT p.accession, a.affinity FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		WHERE a.affinity * 2.0 > 18.0`)
}

func BenchmarkVecAggregate(b *testing.B) {
	benchBothEngines(b, "SELECT protein_id, COUNT(*), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities GROUP BY protein_id")
}

// The index-driven access paths (run with -benchmem; EXPERIMENTS.md
// "access paths" records them against the parent commit, where the
// same statements heap a gathered range, scan the table, and gather
// every column).

func BenchmarkIndexOrderedTopK(b *testing.B) {
	benchBothEngines(b, "SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= 6.5 ORDER BY affinity DESC LIMIT 20")
}

func BenchmarkIndexUnionScan(b *testing.B) {
	clade := cladeOfSize(b, datagenCatalog(b, 5).Tree(), 30, 30)
	benchBothEngines(b, "SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '"+clade+"') GROUP BY ligand_id ORDER BY AVG(affinity) DESC LIMIT 10")
}

func BenchmarkGatherProjected(b *testing.B) {
	benchBothEngines(b, "SELECT ligand_id FROM activities WHERE affinity >= 7.5")
}
