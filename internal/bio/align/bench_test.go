package align

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"drugtree/internal/bio/seq"
)

func benchSeqs(n, length int, divergence float64) []string {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, length)
	for i := range base {
		base[i] = seq.AminoAcids[rng.Intn(20)]
	}
	out := make([]string, n)
	for i := range out {
		b := append([]byte(nil), base...)
		for j := range b {
			if rng.Float64() < divergence {
				b[j] = seq.AminoAcids[rng.Intn(20)]
			}
		}
		out[i] = string(b)
	}
	return out
}

// BenchmarkAlignment is the banded-vs-exact ablation: for related
// sequences the band loses no accuracy (see tests) at a fraction of
// the cost.
func BenchmarkAlignment(b *testing.B) {
	seqs := benchSeqs(2, 300, 0.15)
	s := BLOSUM62(8)
	b.Run("GlobalExact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Global(seqs[0], seqs[1], s)
		}
	})
	b.Run("GlobalBanded32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GlobalBanded(seqs[0], seqs[1], s, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDistance compares alignment-based and alignment-free
// distances — the construction-time trade-off core.TreeMethod exposes.
func BenchmarkDistance(b *testing.B) {
	seqs := benchSeqs(2, 300, 0.15)
	s := BLOSUM62(8)
	b.Run("AlignBanded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DistanceBanded(seqs[0], seqs[1], s, 32)
		}
	})
	b.Run("Kmer4Cosine", func(b *testing.B) {
		p1, _ := seq.NewKmerProfile(seqs[0], 4)
		p2, _ := seq.NewKmerProfile(seqs[1], 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p1.Cosine(p2)
		}
	})
}

func BenchmarkKmerProfile(b *testing.B) {
	s := strings.Repeat("MKVLAARHGCDEFGHIKLWQ", 15) // 300 residues
	for _, k := range []int{3, 4, 6} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := seq.NewKmerProfile(s, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
