package phylo

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// DistanceMatrix is a symmetric matrix of pairwise distances between
// named taxa. Only the strict lower triangle is stored.
type DistanceMatrix struct {
	Names []string
	// tri holds row i's entries for columns 0..i-1 at
	// tri[i*(i-1)/2 : i*(i-1)/2+i].
	tri []float64
}

// NewDistanceMatrix allocates a zero matrix over the given taxa.
func NewDistanceMatrix(names []string) *DistanceMatrix {
	n := len(names)
	cp := make([]string, n)
	copy(cp, names)
	return &DistanceMatrix{Names: cp, tri: make([]float64, n*(n-1)/2)}
}

// Len returns the number of taxa.
func (m *DistanceMatrix) Len() int { return len(m.Names) }

func triIndex(i, j int) int {
	if i < j {
		i, j = j, i
	}
	return i*(i-1)/2 + j
}

// At returns the distance between taxa i and j.
func (m *DistanceMatrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.tri[triIndex(i, j)]
}

// Set stores the distance between taxa i and j (symmetric).
func (m *DistanceMatrix) Set(i, j int, d float64) {
	if i == j {
		return
	}
	m.tri[triIndex(i, j)] = d
}

// Validate checks non-negativity and that no entry is NaN/Inf.
func (m *DistanceMatrix) Validate() error {
	for idx, d := range m.tri {
		if d < 0 || d != d {
			return fmt.Errorf("phylo: invalid distance %g at tri index %d", d, idx)
		}
	}
	return nil
}

// checkFinite returns an error naming the first NaN or ±Inf entry, in
// row order over the lower triangle, or nil when every entry is finite.
func (m *DistanceMatrix) checkFinite() error {
	for i := 1; i < m.Len(); i++ {
		base := i * (i - 1) / 2
		for j, d := range m.tri[base : base+i] {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				return fmt.Errorf("phylo: distance between %q and %q is %g", m.Names[i], m.Names[j], d)
			}
		}
	}
	return nil
}

// PairwiseFunc computes the distance between taxa i and j. It must be
// safe for concurrent calls.
type PairwiseFunc func(i, j int) float64

// PairRows adapts a pair function to ComputeDistances: every worker
// shares f and fills a row one pair at a time.
func PairRows(f PairwiseFunc) func() func(i int, row []float64) {
	return func() func(i int, row []float64) {
		return func(i int, row []float64) {
			for j := range row {
				row[j] = f(i, j)
			}
		}
	}
}

// ComputeDistances fills a matrix over names one row at a time, in
// parallel. newRow is called once per worker and returns that worker's
// filler, which writes the distances from taxon i to taxa 0..i-1 into
// row[0:i] in place; a filler may therefore keep per-worker scratch
// (seq.CosineRows keeps a dense k-mer vector), while the fillers of
// different workers run concurrently and must share only read-only
// state. Rows are handed out longest first.
func ComputeDistances(names []string, newRow func() func(i int, row []float64)) *DistanceMatrix {
	m := NewDistanceMatrix(names)
	n := len(names)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	rows := make(chan int, n)
	for i := n - 1; i >= 1; i-- {
		rows <- i
	}
	close(rows)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill := newRow()
			for i := range rows {
				base := i * (i - 1) / 2
				fill(i, m.tri[base:base+i:base+i])
			}
		}()
	}
	wg.Wait()
	return m
}
