package query

import (
	"context"
	"fmt"
	"testing"
)

// Operator benchmarks at the query layer, with the hash join's probe on
// one worker so the numbers isolate the operators from the worker pool;
// the join's parallel ratio lives in parallel_bench_test.go.

func benchQuery(b *testing.B, q string) {
	benchQueryOn(b, datagenCatalog(b, 5), q)
}

// benchQueryOn times q on a serial engine over cat.
func benchQueryOn(b *testing.B, cat Catalog, q string) {
	eng := serialConfig().engine(cat)
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
}

func BenchmarkVecPointLookup(b *testing.B) {
	benchQuery(b, "SELECT * FROM proteins WHERE accession = 'DT00007'")
}

func BenchmarkVecScanFilter(b *testing.B) {
	// Arithmetic left-hand side keeps the conjunct out of the index
	// access path: a full sequential scan.
	benchQuery(b, "SELECT protein_id, affinity FROM activities WHERE affinity * 2.0 > 18.0")
}

func BenchmarkVecLikeFilter(b *testing.B) {
	benchQuery(b, "SELECT protein_id, ligand_id FROM activities WHERE ligand_id LIKE 'LIG001%'")
}

func BenchmarkVecHashJoin(b *testing.B) {
	benchQuery(b, `SELECT p.accession, a.affinity FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		WHERE a.affinity * 2.0 > 18.0`)
}

func BenchmarkVecAggregate(b *testing.B) {
	benchQuery(b, "SELECT protein_id, COUNT(*), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities GROUP BY protein_id")
}

// The index-driven access paths (run with -benchmem; EXPERIMENTS.md
// "access paths" records them against the parent commit, where the
// same statements heap a gathered range, scan the table, and gather
// every column).

func BenchmarkIndexOrderedTopK(b *testing.B) {
	benchQuery(b, "SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= 6.5 ORDER BY affinity DESC LIMIT 20")
}

// BenchmarkIndexRankRange reads a 30-leaf clade's activities as one
// range of the rank index.
func BenchmarkIndexRankRange(b *testing.B) {
	clade := cladeOfSize(b, datagenCatalog(b, 5).Tree(), 30, 30)
	benchQuery(b, "SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '"+clade+"') GROUP BY ligand_id ORDER BY AVG(affinity) DESC LIMIT 10")
}

func BenchmarkGatherProjected(b *testing.B) {
	benchQuery(b, "SELECT ligand_id FROM activities WHERE affinity >= 7.5")
}

// The joins that read only what survives (EXPERIMENTS "Joins that read
// only what survives" records them against the parent commit, where
// the first statement reads every activity over the cut and hashes a
// family's proteins against them, and the second materializes every
// joined pair for the aggregate above).

func BenchmarkKeyedProbe(b *testing.B) {
	benchQuery(b, `SELECT p.accession, a.ligand_id, a.affinity FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		WHERE p.family = 'FAM01' AND a.affinity >= 5`)
}

func BenchmarkGroupJoin(b *testing.B) {
	benchQuery(b, `SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		WHERE a.affinity >= 5 GROUP BY p.family`)
}

// BenchmarkFoldScan is an aggregate over ≈ 8.6 k index-selected
// activities, which the fold reads straight from storage a morsel at a
// time (EXPERIMENTS "Folds that read storage" records it against the
// parent commit, where the range was gathered whole first).
func BenchmarkFoldScan(b *testing.B) {
	benchQueryOn(b, allocCatalog(b), fmt.Sprintf("SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE affinity >= %.3f GROUP BY ligand_id", allocHi))
}
