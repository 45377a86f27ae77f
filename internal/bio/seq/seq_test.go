package seq

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestResidueIndexRoundTrip(t *testing.T) {
	for i := 0; i < len(AminoAcids); i++ {
		c := AminoAcids[i]
		if got := ResidueIndex(c); got != i {
			t.Errorf("ResidueIndex(%q) = %d, want %d", c, got, i)
		}
		lower := c + 'a' - 'A'
		if got := ResidueIndex(lower); got != i {
			t.Errorf("ResidueIndex(%q) = %d, want %d", lower, got, i)
		}
	}
	for _, c := range []byte{'B', 'J', 'O', 'U', 'X', 'Z', '*', '-', ' ', '1'} {
		if IsResidue(c) {
			t.Errorf("IsResidue(%q) = true, want false", c)
		}
	}
}

func TestProteinValidate(t *testing.T) {
	cases := []struct {
		name    string
		p       Protein
		wantErr bool
	}{
		{"valid", Protein{ID: "P1", Residues: "ACDEFGHIKLMNPQRSTVWY"}, false},
		{"empty id", Protein{Residues: "ACD"}, true},
		{"empty seq", Protein{ID: "P1"}, true},
		{"bad residue", Protein{ID: "P1", Residues: "ACDX"}, true},
		{"gap char", Protein{ID: "P1", Residues: "AC-D"}, true},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Validate() err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestProteinNormalize(t *testing.T) {
	p := Protein{ID: "P1", Residues: "acdef"}
	if err := p.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if p.Residues != "ACDEF" {
		t.Fatalf("Residues = %q, want ACDEF", p.Residues)
	}
}

func TestKmerProfileBasic(t *testing.T) {
	p, err := NewKmerProfile("AAAA", 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != 3 {
		t.Fatalf("Total = %d, want 3", p.Total)
	}
	if len(p.Counts) != 1 {
		t.Fatalf("distinct kmers = %d, want 1", len(p.Counts))
	}
	for _, c := range p.Counts {
		if c != 3 {
			t.Fatalf("count = %d, want 3", c)
		}
	}
}

func TestKmerProfileKBounds(t *testing.T) {
	if _, err := NewKmerProfile("ACD", 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewKmerProfile("ACD", 13); err == nil {
		t.Error("k=13 accepted")
	}
	p, err := NewKmerProfile("AC", 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != 0 {
		t.Fatalf("short sequence Total = %d, want 0", p.Total)
	}
}

func TestKmerProfileInvalidResiduesBreakRuns(t *testing.T) {
	// 'X' is not a residue; kmers may not span it.
	p, err := NewKmerProfile("ACXDE", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Valid 2-mers: AC, DE.
	if p.Total != 2 {
		t.Fatalf("Total = %d, want 2", p.Total)
	}
}

func TestKmerCosineIdentity(t *testing.T) {
	s := "MKVLAARHGMKVLAARHG"
	p, _ := NewKmerProfile(s, 3)
	if d := p.Cosine(p); d > 1e-9 {
		t.Fatalf("self distance = %g, want 0", d)
	}
}

func TestKmerCosineDisjoint(t *testing.T) {
	a, _ := NewKmerProfile("AAAAAA", 3)
	b, _ := NewKmerProfile("WWWWWW", 3)
	if d := a.Cosine(b); d != 1 {
		t.Fatalf("disjoint distance = %g, want 1", d)
	}
}

func TestKmerCosineMismatchedK(t *testing.T) {
	a, _ := NewKmerProfile("AAAAAA", 2)
	b, _ := NewKmerProfile("AAAAAA", 3)
	if d := a.Cosine(b); d != 1 {
		t.Fatalf("mismatched-K distance = %g, want 1", d)
	}
}

func TestKmerCosineSymmetric(t *testing.T) {
	a, _ := NewKmerProfile("MKVLAARHGCDEFGHIKL", 3)
	b, _ := NewKmerProfile("MKVLAARHGAAAA", 3)
	if d1, d2 := a.Cosine(b), b.Cosine(a); d1 != d2 {
		t.Fatalf("asymmetric: %g vs %g", d1, d2)
	}
}

func TestKmerCosineRange(t *testing.T) {
	// Property: distance always in [0,1] for random residue strings.
	f := func(xs, ys []uint8) bool {
		mk := func(bs []uint8) string {
			var sb strings.Builder
			for _, b := range bs {
				sb.WriteByte(AminoAcids[int(b)%len(AminoAcids)])
			}
			return sb.String()
		}
		a, err := NewKmerProfile(mk(xs), 2)
		if err != nil {
			return false
		}
		b, err := NewKmerProfile(mk(ys), 2)
		if err != nil {
			return false
		}
		d := a.Cosine(b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFASTARoundTrip(t *testing.T) {
	in := []*Protein{
		{ID: "P001", Name: "kinase alpha", Family: "FAM1", Residues: strings.Repeat("ACDEFGHIKLMNPQRSTVWY", 7)},
		{ID: "P002", Name: "", Family: "", Residues: "MKVLA"},
		{ID: "P003", Name: "two words here", Family: "FAM2", Residues: "WWWWW"},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ParseFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("parsed %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || out[i].Name != in[i].Name ||
			out[i].Family != in[i].Family || out[i].Residues != in[i].Residues {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, out[i], in[i])
		}
	}
}

func TestFASTAWrapsLongLines(t *testing.T) {
	long := strings.Repeat("A", 150)
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, []*Protein{{ID: "P", Residues: long}}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if len(line) > 60 && line[0] != '>' {
			t.Fatalf("sequence line longer than 60 cols: %d", len(line))
		}
	}
	out, err := ParseFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Residues != long {
		t.Fatalf("wrapped sequence did not round-trip")
	}
}

func TestFASTAErrors(t *testing.T) {
	if _, err := ParseFASTA(strings.NewReader("ACDEF\n")); err == nil {
		t.Error("sequence before defline accepted")
	}
	if _, err := ParseFASTA(strings.NewReader(">P1 ok\nAC1DEF\n")); err == nil {
		t.Error("invalid residue accepted")
	}
}

func TestFASTALowercaseNormalized(t *testing.T) {
	out, err := ParseFASTA(strings.NewReader(">P1\nacdef\n"))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Residues != "ACDEF" {
		t.Fatalf("Residues = %q, want ACDEF", out[0].Residues)
	}
}

func TestFASTAEmptyInput(t *testing.T) {
	out, err := ParseFASTA(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("parsed %d records from empty input", len(out))
	}
}

// mapProfile is the map-keyed k-mer profile NewKmerProfile built before
// profiles became sorted arrays, kept with its Cosine as the oracle the
// array form and CosineRows must match bit for bit.
type mapProfile struct {
	K      int
	Counts map[uint64]uint32
	Total  int
}

func newMapProfile(residues string, k int) *mapProfile {
	p := &mapProfile{K: k, Counts: make(map[uint64]uint32)}
	if len(residues) < k {
		return p
	}
	var code uint64
	var pow uint64 = 1
	for i := 1; i < k; i++ {
		pow *= 20
	}
	valid := 0
	for i := 0; i < len(residues); i++ {
		r := ResidueIndex(residues[i])
		if r < 0 {
			valid = 0
			code = 0
			continue
		}
		if valid < k {
			code = code*20 + uint64(r)
			valid++
		} else {
			code = (code%(pow))*20 + uint64(r)
		}
		if valid >= k {
			p.Counts[code]++
			p.Total++
		}
	}
	return p
}

func (p *mapProfile) Cosine(q *mapProfile) float64 {
	if p.K != q.K || p.Total == 0 || q.Total == 0 {
		return 1
	}
	small, large := p, q
	if len(small.Counts) > len(large.Counts) {
		small, large = large, small
	}
	var dot, np, nq float64
	for code, c := range small.Counts {
		if d, ok := large.Counts[code]; ok {
			dot += float64(c) * float64(d)
		}
	}
	for _, c := range p.Counts {
		np += float64(c) * float64(c)
	}
	for _, c := range q.Counts {
		nq += float64(c) * float64(c)
	}
	if np == 0 || nq == 0 {
		return 1
	}
	sim := dot / (math.Sqrt(np) * math.Sqrt(nq))
	if sim > 1 {
		sim = 1
	}
	return 1 - sim
}

// proteinSet draws n sequences in a few families, each a mutated copy
// of its family's ancestor, so that pairs share k-mers even at k = 12.
// It mixes in what the kernel must survive: empty sequences, sequences
// shorter than every k, lower-case letters, residues that are not among
// the 20 and break k-mer runs, and exact duplicates (distance 0).
func proteinSet(rng *rand.Rand, n int) []string {
	const families = 4
	ancestors := make([]string, families)
	for f := range ancestors {
		b := make([]byte, 60+rng.Intn(240))
		for i := range b {
			b[i] = AminoAcids[rng.Intn(len(AminoAcids))]
		}
		ancestors[f] = string(b)
	}
	out := []string{"", "A", "ACDEFGHIKLM", "acdefghiklmnpq", "MKVXLAARHG*MKVLAARHGBZ"}
	for len(out) < n {
		b := []byte(ancestors[rng.Intn(families)])
		for i := range b {
			switch x := rng.Float64(); {
			case x < 0.08:
				b[i] = AminoAcids[rng.Intn(len(AminoAcids))]
			case x < 0.09:
				b[i] = "XBZ-"[rng.Intn(4)]
			}
		}
		out = append(out, string(b[:len(b)-rng.Intn(len(b)/4+1)]))
		if rng.Intn(8) == 0 {
			out = append(out, out[len(out)-1])
		}
	}
	return out
}

func TestKmerProfileMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seqs := proteinSet(rng, 40)
	for _, k := range []int{1, 2, 3, 4, 6, 12} {
		for _, s := range seqs {
			p, err := NewKmerProfile(s, k)
			if err != nil {
				t.Fatal(err)
			}
			want := newMapProfile(s, k)
			if p.K != k || p.Total != want.Total || len(p.Codes) != len(want.Counts) || len(p.Counts) != len(p.Codes) {
				t.Fatalf("k=%d %q: K %d, Total %d, %d codes, %d counts; oracle Total %d, %d codes",
					k, s, p.K, p.Total, len(p.Codes), len(p.Counts), want.Total, len(want.Counts))
			}
			var sumSq uint64
			for x, c := range p.Codes {
				if x > 0 && c <= p.Codes[x-1] {
					t.Fatalf("k=%d %q: codes not strictly ascending at %d", k, s, x)
				}
				if p.Counts[x] != want.Counts[c] {
					t.Fatalf("k=%d %q: code %d counted %d, oracle %d", k, s, c, p.Counts[x], want.Counts[c])
				}
				sumSq += uint64(p.Counts[x]) * uint64(p.Counts[x])
			}
			if p.Norm != math.Sqrt(float64(sumSq)) {
				t.Fatalf("k=%d %q: Norm %g, want √%d", k, s, p.Norm, sumSq)
			}
		}
	}
}

// TestCosineRowsMatchMapOracle drives the matrix kernel the way
// phylo.ComputeDistances does, with several fillers taking rows in a
// shuffled order (so a filler that left counts in its dense vector
// would corrupt a later row), and requires every entry, and the merge
// Cosine of every pair, to equal the map oracle bit for bit.
func TestCosineRowsMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 2, 3, 4, 6, 12} {
		seqs := proteinSet(rng, 60)
		profiles := make([]*KmerProfile, len(seqs))
		oracle := make([]*mapProfile, len(seqs))
		for i, s := range seqs {
			var err error
			if profiles[i], err = NewKmerProfile(s, k); err != nil {
				t.Fatal(err)
			}
			oracle[i] = newMapProfile(s, k)
		}
		newRow := CosineRows(profiles)
		fillers := []func(int, []float64){newRow(), newRow(), newRow()}
		zeros := 0
		for n, i := range rng.Perm(len(seqs)) {
			row := make([]float64, i)
			fillers[n%len(fillers)](i, row)
			for j, got := range row {
				want := oracle[i].Cosine(oracle[j])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("k=%d: row %d col %d = %v (%#x), oracle %v (%#x)\n%q\n%q",
						k, i, j, got, math.Float64bits(got), want, math.Float64bits(want), seqs[i], seqs[j])
				}
				if merged := profiles[i].Cosine(profiles[j]); math.Float64bits(merged) != math.Float64bits(want) {
					t.Fatalf("k=%d: Cosine(%d, %d) = %v, oracle %v", k, i, j, merged, want)
				}
				if got == 0 {
					zeros++
				}
			}
		}
		if zeros == 0 {
			t.Fatalf("k=%d: no pair at distance 0; the set lost its duplicates", k)
		}
		for i := range profiles {
			self, want := profiles[i].Cosine(profiles[i]), oracle[i].Cosine(oracle[i])
			if math.Float64bits(self) != math.Float64bits(want) {
				t.Fatalf("k=%d: self distance of %q = %v, oracle %v", k, seqs[i], self, want)
			}
		}
	}
}

// TestCosineRowsMixedK drives the matrix kernel over profiles of
// K = 2 and K = 4 and an empty one. The sequences are rich in 'A', so
// many 4-mer codes (AAxy) equal 2-mer codes and share their postings:
// a K = 2 row then sums products into the accumulators of K = 4
// profiles, whose distance is 1 all the same. One filler takes every
// row in a shuffled order, so a sum left in an accumulator would show
// in a later row; every entry must equal Cosine bit for bit.
func TestCosineRowsMixedK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var profiles []*KmerProfile
	codes := map[int]map[uint64]bool{2: {}, 4: {}}
	for len(profiles) < 40 {
		b := make([]byte, 20+rng.Intn(60))
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] = 'A'
			} else {
				b[i] = AminoAcids[rng.Intn(len(AminoAcids))]
			}
		}
		k := 2 + 2*rng.Intn(2)
		p, err := NewKmerProfile(string(b), k)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range p.Codes {
			codes[k][c] = true
		}
		profiles = append(profiles, p)
		if len(profiles) == 20 {
			empty, err := NewKmerProfile("", 4)
			if err != nil {
				t.Fatal(err)
			}
			profiles = append(profiles, empty)
		}
	}
	shared := 0
	for c := range codes[2] {
		if codes[4][c] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no 2-mer code is also a 4-mer code; the set does not exercise shared postings")
	}
	fill := CosineRows(profiles)()
	for _, i := range rng.Perm(len(profiles)) {
		row := make([]float64, i)
		fill(i, row)
		for j, got := range row {
			if want := profiles[i].Cosine(profiles[j]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d col %d (K %d, %d) = %v, Cosine %v", i, j, profiles[i].K, profiles[j].K, got, want)
			}
		}
	}
}

// FuzzKmerCosine: for any two byte strings and any k in [1, 12], the
// merge Cosine and the matrix kernel both equal the map oracle bit for
// bit, and the distance lies in [0, 1].
func FuzzKmerCosine(f *testing.F) {
	f.Add("MKVLAARHGCDEFGHIKL", "MKVLAARHGAAAA", 3)
	f.Fuzz(func(t *testing.T, a, b string, k int) {
		k = 1 + int(uint(k)%12)
		p, err := NewKmerProfile(a, k)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewKmerProfile(b, k)
		if err != nil {
			t.Fatal(err)
		}
		want := newMapProfile(a, k).Cosine(newMapProfile(b, k))
		if got := p.Cosine(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("k=%d: Cosine = %v, oracle %v", k, got, want)
		}
		if !(want >= 0 && want <= 1) {
			t.Fatalf("k=%d: distance %v outside [0, 1]", k, want)
		}
		row := make([]float64, 1)
		CosineRows([]*KmerProfile{p, q})()(1, row)
		if want := newMapProfile(b, k).Cosine(newMapProfile(a, k)); math.Float64bits(row[0]) != math.Float64bits(want) {
			t.Fatalf("k=%d: kernel = %v, oracle %v", k, row[0], want)
		}
	})
}
