package phylo

import (
	"fmt"
	"math/rand"
	"testing"

	"drugtree/internal/bio/seq"
)

// benchTree builds an indexed random tree of n nodes.
func benchTree(b *testing.B, n int) *Tree {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tr := NewTree()
	tr.AddNode("", None, 0)
	for i := 1; i < n; i++ {
		if _, err := tr.AddNode(fmt.Sprintf("n%d", i), NodeID(rng.Intn(i)), rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	if err := tr.Index(); err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkSubtree is the micro-ablation behind experiment F1: naive
// traversal vs interval-index slice copy.
func BenchmarkSubtree(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		tr := benchTree(b, n)
		// A node with a mid-sized subtree.
		var target NodeID
		for i := 0; i < tr.Len(); i++ {
			if c := tr.LeafCount(NodeID(i)); c > n/20 && c < n/5 {
				target = NodeID(i)
				break
			}
		}
		b.Run(fmt.Sprintf("n-%d/Naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.SubtreeNaive(target)
			}
		})
		b.Run(fmt.Sprintf("n-%d/Indexed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.SubtreeIndexed(target)
			}
		})
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n-%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			parents := make([]NodeID, n)
			for i := 1; i < n; i++ {
				parents[i] = NodeID(rng.Intn(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := NewTree()
				tr.AddNode("", None, 0)
				for j := 1; j < n; j++ {
					tr.AddNode(fmt.Sprintf("n%d", j), parents[j], 1)
				}
				b.StartTimer()
				if err := tr.Index(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNeighborJoining(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("taxa-%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("T%d", i)
			}
			m := NewDistanceMatrix(names)
			for i := 1; i < n; i++ {
				for j := 0; j < i; j++ {
					m.Set(i, j, 0.1+rng.Float64())
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NeighborJoining(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKmerDistances is core.New's k-mer distance step at dataset
// D1's size: 800 sequences of 240 residues in 16 families, k = 4,
// profiles built and the 319 600-pair matrix filled. kernel is the
// engine's path (seq.CosineRows); merge fills the same matrix with the
// pair-at-a-time sorted-merge Cosine, for comparison.
func BenchmarkKmerDistances(b *testing.B) {
	seqs := kmerSeqs(rand.New(rand.NewSource(1)), 16, 50, 240)
	for _, c := range []struct {
		name string
		rows func([]*seq.KmerProfile) func() func(int, []float64)
	}{
		{"kernel", seq.CosineRows},
		{"merge", func(p []*seq.KmerProfile) func() func(int, []float64) {
			return PairRows(func(i, j int) float64 { return p[i].Cosine(p[j]) })
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				names, profiles := kmerProfiles(b, seqs, 4)
				ComputeDistances(names, c.rows(profiles))
			}
		})
	}
}

func BenchmarkNewickRoundTrip(b *testing.B) {
	tr := benchTree(b, 2000)
	s := tr.Newick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseNewick(s); err != nil {
			b.Fatal(err)
		}
	}
}
