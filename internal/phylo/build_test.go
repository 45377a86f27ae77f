package phylo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"drugtree/internal/bio/seq"
)

// additiveMatrix builds the distance matrix induced by a known tree's
// path metric, which NJ must reconstruct exactly (additivity).
func additiveMatrix(t *testing.T, tr *Tree) *DistanceMatrix {
	t.Helper()
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	names := make([]string, len(leaves))
	for i, id := range leaves {
		names[i] = tr.Node(id).Name
	}
	m := NewDistanceMatrix(names)
	for i := range leaves {
		for j := 0; j < i; j++ {
			m.Set(i, j, pathDistance(tr, leaves[i], leaves[j]))
		}
	}
	return m
}

func TestNeighborJoiningRecoversAdditiveTree(t *testing.T) {
	src, err := ParseNewick("((A:2,B:3):1,(C:4,(D:2,E:1):2):3,F:7);")
	if err != nil {
		t.Fatal(err)
	}
	m := additiveMatrix(t, src)
	got, err := NeighborJoining(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Index(); err != nil {
		t.Fatal(err)
	}
	// NJ on an additive matrix must reproduce all pairwise path
	// distances exactly (up to float error).
	for i := 0; i < m.Len(); i++ {
		for j := 0; j < i; j++ {
			a := got.FindLeaf(m.Names[i])
			b := got.FindLeaf(m.Names[j])
			if a == None || b == None {
				t.Fatalf("NJ tree missing leaf %s or %s", m.Names[i], m.Names[j])
			}
			want := m.At(i, j)
			if d := pathDistance(got, a, b); math.Abs(d-want) > 1e-6 {
				t.Errorf("NJ distance %s-%s = %g, want %g", m.Names[i], m.Names[j], d, want)
			}
		}
	}
}

func TestNeighborJoiningSmallCases(t *testing.T) {
	m1 := NewDistanceMatrix([]string{"A"})
	tr, err := NeighborJoining(m1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves()) != 1 {
		t.Fatalf("1-taxon tree has %d leaves", len(tr.Leaves()))
	}

	m2 := NewDistanceMatrix([]string{"A", "B"})
	m2.Set(0, 1, 4)
	tr2, err := NeighborJoining(m2)
	if err != nil {
		t.Fatal(err)
	}
	tr2.Index()
	if d := pathDistance(tr2, tr2.FindLeaf("A"), tr2.FindLeaf("B")); !approxEqual(d, 4) {
		t.Fatalf("2-taxon distance = %g, want 4", d)
	}

	m3 := NewDistanceMatrix([]string{"A", "B", "C"})
	m3.Set(0, 1, 2)
	m3.Set(0, 2, 3)
	m3.Set(1, 2, 3)
	tr3, err := NeighborJoining(m3)
	if err != nil {
		t.Fatal(err)
	}
	tr3.Index()
	if d := pathDistance(tr3, tr3.FindLeaf("A"), tr3.FindLeaf("B")); !approxEqual(d, 2) {
		t.Fatalf("3-taxon A-B = %g, want 2", d)
	}

	if _, err := NeighborJoining(NewDistanceMatrix(nil)); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

func TestNeighborJoiningValidTreeOnRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(30)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("T%02d", i)
		}
		m := NewDistanceMatrix(names)
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				m.Set(i, j, 0.1+rng.Float64()*2)
			}
		}
		tr, err := NeighborJoining(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("NJ produced invalid tree: %v", err)
		}
		if got := len(tr.Leaves()); got != n {
			t.Fatalf("NJ tree has %d leaves, want %d", got, n)
		}
		if err := tr.Index(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUPGMAUltrametric(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 20
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("T%02d", i)
	}
	m := NewDistanceMatrix(names)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, 0.5+rng.Float64())
		}
	}
	tr, err := UPGMA(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
	// All leaves equidistant from the root.
	leaves := tr.Leaves()
	d0 := tr.RootDistance(leaves[0])
	for _, l := range leaves[1:] {
		if math.Abs(tr.RootDistance(l)-d0) > 1e-9 {
			t.Fatalf("UPGMA not ultrametric: %g vs %g", tr.RootDistance(l), d0)
		}
	}
}

func TestUPGMARecoversUltrametricTree(t *testing.T) {
	// Build an ultrametric matrix: two clusters at height 1, merged at
	// height 3.
	names := []string{"A", "B", "C", "D"}
	m := NewDistanceMatrix(names)
	m.Set(0, 1, 2) // A,B cluster (height 1)
	m.Set(2, 3, 2) // C,D cluster
	for _, p := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		m.Set(p[0], p[1], 6) // merged at height 3
	}
	tr, err := UPGMA(m)
	if err != nil {
		t.Fatal(err)
	}
	tr.Index()
	if ab := tr.Node(tr.FindLeaf("A")).Parent; ab != tr.Node(tr.FindLeaf("B")).Parent || tr.LeafCount(ab) != 2 {
		t.Fatalf("A,B do not form a clade")
	}
	if d := pathDistance(tr, tr.FindLeaf("A"), tr.FindLeaf("C")); !approxEqual(d, 6) {
		t.Fatalf("A-C distance = %g, want 6", d)
	}
}

func TestUPGMASingleAndEmpty(t *testing.T) {
	if _, err := UPGMA(NewDistanceMatrix(nil)); err == nil {
		t.Fatal("empty matrix accepted")
	}
	tr, err := UPGMA(NewDistanceMatrix([]string{"A"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves()) != 1 {
		t.Fatalf("single-taxon UPGMA has %d leaves", len(tr.Leaves()))
	}
}

func TestDistanceMatrixBasics(t *testing.T) {
	m := NewDistanceMatrix([]string{"A", "B", "C"})
	m.Set(0, 1, 1.5)
	m.Set(2, 0, 2.5)
	if m.At(1, 0) != 1.5 || m.At(0, 1) != 1.5 {
		t.Fatalf("symmetry broken: %g/%g", m.At(1, 0), m.At(0, 1))
	}
	if m.At(0, 2) != 2.5 {
		t.Fatalf("At(0,2) = %g", m.At(0, 2))
	}
	if m.At(1, 1) != 0 {
		t.Fatalf("diagonal not 0")
	}
	m.Set(1, 1, 99) // must be ignored
	if m.At(1, 1) != 0 {
		t.Fatalf("diagonal settable")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Set(0, 1, math.NaN())
	if err := m.Validate(); err == nil {
		t.Fatal("NaN distance accepted")
	}
}

func TestComputeDistancesParallel(t *testing.T) {
	names := make([]string, 50)
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i)
	}
	m := ComputeDistances(names, PairRows(func(i, j int) float64 {
		return float64(i + j)
	}))
	for i := 1; i < len(names); i++ {
		for j := 0; j < i; j++ {
			if m.At(i, j) != float64(i+j) {
				t.Fatalf("At(%d,%d) = %g, want %d", i, j, m.At(i, j), i+j)
			}
		}
	}
}

// kmerSeqs draws families × perFamily sequences of length n, each a
// copy of its family's random ancestor with a tenth of its residues
// redrawn: the shape of dataset D1's proteins.
func kmerSeqs(rng *rand.Rand, families, perFamily, n int) []string {
	var out []string
	for f := 0; f < families; f++ {
		anc := make([]byte, n)
		for i := range anc {
			anc[i] = seq.AminoAcids[rng.Intn(len(seq.AminoAcids))]
		}
		for p := 0; p < perFamily; p++ {
			b := append([]byte(nil), anc...)
			for i := range b {
				if rng.Float64() < 0.1 {
					b[i] = seq.AminoAcids[rng.Intn(len(seq.AminoAcids))]
				}
			}
			out = append(out, string(b))
		}
	}
	return out
}

func kmerProfiles(tb testing.TB, seqs []string, k int) ([]string, []*seq.KmerProfile) {
	tb.Helper()
	names := make([]string, len(seqs))
	profiles := make([]*seq.KmerProfile, len(seqs))
	for i, s := range seqs {
		names[i] = fmt.Sprintf("T%d", i)
		var err error
		if profiles[i], err = seq.NewKmerProfile(s, k); err != nil {
			tb.Fatal(err)
		}
	}
	return names, profiles
}

// TestComputeDistancesKmerRows runs the k-mer kernel through the
// parallel matrix with more workers than rows need, so that under the
// race detector concurrent fillers share the triangle, and requires
// the matrix to equal the pairwise Cosine bit for bit.
func TestComputeDistancesKmerRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	names, profiles := kmerProfiles(t, kmerSeqs(rand.New(rand.NewSource(4)), 4, 12, 120), 4)
	m := ComputeDistances(names, seq.CosineRows(profiles))
	for i := 1; i < len(names); i++ {
		for j := 0; j < i; j++ {
			if got, want := m.At(i, j), profiles[i].Cosine(profiles[j]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("At(%d,%d) = %v, Cosine %v", i, j, got, want)
			}
		}
	}
}

func TestLayoutBasics(t *testing.T) {
	tr, err := ParseNewick("((A:1,B:1):1,C:2);")
	if err != nil {
		t.Fatal(err)
	}
	tr.Index()
	l := NewLayout(tr)
	if l.HeightRows != 3 {
		t.Fatalf("HeightRows = %d, want 3", l.HeightRows)
	}
	a, b, c := tr.FindLeaf("A"), tr.FindLeaf("B"), tr.FindLeaf("C")
	if !approxEqual(l.X[a], 2) || !approxEqual(l.X[c], 2) {
		t.Fatalf("leaf X wrong: A=%g C=%g", l.X[a], l.X[c])
	}
	if !approxEqual(l.Width, 2) {
		t.Fatalf("Width = %g, want 2", l.Width)
	}
	// Leaf rows are consecutive in preorder: A=0, B=1, C=2.
	if l.Y[a] != 0 || l.Y[b] != 1 || l.Y[c] != 2 {
		t.Fatalf("leaf rows = %g,%g,%g", l.Y[a], l.Y[b], l.Y[c])
	}
	// Parent of A,B centered between them.
	ab := tr.Node(a).Parent
	if !approxEqual(l.Y[ab], 0.5) {
		t.Fatalf("internal Y = %g, want 0.5", l.Y[ab])
	}
	// Root centered over its children (ab at 0.5, C at 2) = 1.25.
	if !approxEqual(l.Y[tr.Root()], 1.25) {
		t.Fatalf("root Y = %g, want 1.25", l.Y[tr.Root()])
	}
}

func TestLayoutInternalWithinChildSpan(t *testing.T) {
	tr := randomTree(t, 500, 77)
	l := NewLayout(tr)
	for i := 0; i < tr.Len(); i++ {
		n := tr.Node(NodeID(i))
		if n.IsLeaf() {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range n.Children {
			lo = math.Min(lo, l.Y[c])
			hi = math.Max(hi, l.Y[c])
		}
		if l.Y[NodeID(i)] < lo-1e-9 || l.Y[NodeID(i)] > hi+1e-9 {
			t.Fatalf("node %d Y=%g outside child span [%g,%g]", i, l.Y[NodeID(i)], lo, hi)
		}
	}
}
