package align

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"drugtree/internal/bio/seq"
)

func TestBLOSUM62Symmetric(t *testing.T) {
	s := BLOSUM62(8)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if s.Sub[i][j] != s.Sub[j][i] {
				t.Fatalf("BLOSUM62 asymmetric at (%d,%d): %d vs %d",
					i, j, s.Sub[i][j], s.Sub[j][i])
			}
		}
	}
}

func TestBLOSUM62SpotValues(t *testing.T) {
	s := BLOSUM62(8)
	// Well-known entries: W/W=11, C/C=9, A/A=4, W/G=-2, D/E=2.
	cases := []struct {
		a, b byte
		want int
	}{
		{'W', 'W', 11}, {'C', 'C', 9}, {'A', 'A', 4},
		{'W', 'G', -2}, {'D', 'E', 2}, {'I', 'V', 3}, {'P', 'P', 7},
	}
	for _, c := range cases {
		if got := s.Score(c.a, c.b); got != c.want {
			t.Errorf("Score(%c,%c) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGlobalIdenticalSequences(t *testing.T) {
	s := Identity(2, 1, 2)
	r := Global("ACDEF", "ACDEF", s)
	if r.Score != 10 {
		t.Fatalf("score = %d, want 10", r.Score)
	}
	if r.A != "ACDEF" || r.B != "ACDEF" {
		t.Fatalf("alignment = %q/%q", r.A, r.B)
	}
	if r.Identity != 1 {
		t.Fatalf("identity = %g, want 1", r.Identity)
	}
}

func TestGlobalKnownAlignment(t *testing.T) {
	// Classic example: GATTACA-like in protein letters.
	// a=GCATGC, b=GATTACA is DNA; use protein letters instead.
	s := Identity(1, 1, 1)
	r := Global("GAT", "GCAT", s)
	// Optimal: G-AT / GCAT, score 3*1 - 1 = 2.
	if r.Score != 2 {
		t.Fatalf("score = %d, want 2", r.Score)
	}
	if len(r.A) != len(r.B) {
		t.Fatalf("aligned lengths differ: %q vs %q", r.A, r.B)
	}
}

func TestGlobalEmptySequences(t *testing.T) {
	s := Identity(1, 1, 2)
	r := Global("", "ACD", s)
	if r.Score != -6 {
		t.Fatalf("score = %d, want -6", r.Score)
	}
	if r.A != "---" || r.B != "ACD" {
		t.Fatalf("alignment = %q/%q", r.A, r.B)
	}
	r = Global("", "", s)
	if r.Score != 0 || r.A != "" {
		t.Fatalf("empty-vs-empty: score=%d A=%q", r.Score, r.A)
	}
}

func TestGlobalGapPlacement(t *testing.T) {
	s := Identity(2, 2, 1)
	r := Global("ACDEF", "ACF", s)
	// Expect ACDEF / AC--F: 3 matches (6) - 2 gaps (2) = 4.
	if r.Score != 4 {
		t.Fatalf("score = %d, want 4", r.Score)
	}
	if strings.Replace(r.B, "-", "", -1) != "ACF" {
		t.Fatalf("B residues corrupted: %q", r.B)
	}
}

func TestAlignmentPreservesResidues(t *testing.T) {
	// Property: removing gaps from the aligned strings recovers the
	// original sequences (global alignment).
	rng := rand.New(rand.NewSource(7))
	randSeq := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(seq.AminoAcids[rng.Intn(20)])
		}
		return b.String()
	}
	s := BLOSUM62(8)
	for trial := 0; trial < 50; trial++ {
		a := randSeq(rng.Intn(40))
		b := randSeq(rng.Intn(40))
		r := Global(a, b, s)
		if got := strings.Replace(r.A, "-", "", -1); got != a {
			t.Fatalf("A corrupted: %q -> %q", a, got)
		}
		if got := strings.Replace(r.B, "-", "", -1); got != b {
			t.Fatalf("B corrupted: %q -> %q", b, got)
		}
		if len(r.A) != len(r.B) {
			t.Fatalf("aligned lengths differ")
		}
	}
}

func TestGlobalScoreSymmetric(t *testing.T) {
	s := BLOSUM62(8)
	f := func(xs, ys []uint8) bool {
		mk := func(bs []uint8) string {
			var sb strings.Builder
			for i, b := range bs {
				if i >= 30 {
					break
				}
				sb.WriteByte(seq.AminoAcids[int(b)%20])
			}
			return sb.String()
		}
		a, b := mk(xs), mk(ys)
		return Global(a, b, s).Score == Global(b, a, s).Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGlobalBandedMatchesExactForWideBand(t *testing.T) {
	s := BLOSUM62(8)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var a, b strings.Builder
		n := 20 + rng.Intn(30)
		for i := 0; i < n; i++ {
			c := seq.AminoAcids[rng.Intn(20)]
			a.WriteByte(c)
			if rng.Float64() < 0.85 {
				b.WriteByte(c)
			} else {
				b.WriteByte(seq.AminoAcids[rng.Intn(20)])
			}
		}
		exact := Global(a.String(), b.String(), s)
		banded, err := GlobalBanded(a.String(), b.String(), s, n)
		if err != nil {
			t.Fatal(err)
		}
		if banded.Score != exact.Score {
			t.Fatalf("banded(k=n) score %d != exact %d", banded.Score, exact.Score)
		}
	}
}

func TestGlobalBandedNarrowBandRejected(t *testing.T) {
	s := Identity(1, 1, 1)
	if _, err := GlobalBanded("AAAAAAAAAA", "AA", s, 3); err == nil {
		t.Fatal("band narrower than length difference accepted")
	}
}

func TestGlobalBandedIdentical(t *testing.T) {
	s := Identity(2, 1, 2)
	r, err := GlobalBanded("ACDEFGHIKL", "ACDEFGHIKL", s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != 20 || r.Identity != 1 {
		t.Fatalf("score=%d identity=%g", r.Score, r.Identity)
	}
}

func TestDistanceProperties(t *testing.T) {
	s := BLOSUM62(8)
	a := "MKVLAARHGCDEFGHIKLMNPQRST"
	if d := resultDistance(Global(a, a, s)); d != 0 {
		t.Fatalf("self distance = %g, want 0", d)
	}
	b := "MKVLAARHGCDEFGHIKLMNPQRSV" // one substitution
	d1 := resultDistance(Global(a, b, s))
	if d1 <= 0 || d1 > 0.2 {
		t.Fatalf("one-substitution distance = %g, want small positive", d1)
	}
	c := "WWWWWWWWWWWWWWWWWWWWWWWWW"
	d2 := resultDistance(Global(a, c, s))
	if d2 <= d1 {
		t.Fatalf("unrelated distance %g not greater than near distance %g", d2, d1)
	}
	if d2 > maxDistance {
		t.Fatalf("distance exceeds cap: %g", d2)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	s := BLOSUM62(8)
	a := "MKVLAARHGCDEF"
	b := "MKVLWWRHGCD"
	if d1, d2 := resultDistance(Global(a, b, s)), resultDistance(Global(b, a, s)); d1 != d2 {
		t.Fatalf("asymmetric distance: %g vs %g", d1, d2)
	}
}

func TestDistanceBandedFallsBack(t *testing.T) {
	s := BLOSUM62(8)
	// Band of 1 cannot cover a length difference of 5 → falls back.
	d := DistanceBanded("ACDEFGHIKL", "ACDEF", s, 1)
	want := resultDistance(Global("ACDEFGHIKL", "ACDEF", s))
	if d != want {
		t.Fatalf("fallback distance %g != exact %g", d, want)
	}
}

func TestIdentityScoring(t *testing.T) {
	s := Identity(5, 4, 3)
	if s.Score('A', 'A') != 5 {
		t.Errorf("match score = %d, want 5", s.Score('A', 'A'))
	}
	if s.Score('A', 'W') != -4 {
		t.Errorf("mismatch score = %d, want -4", s.Score('A', 'W'))
	}
	if s.Score('A', 'X') != -3 {
		t.Errorf("invalid residue score = %d, want -gap", s.Score('A', 'X'))
	}
}
