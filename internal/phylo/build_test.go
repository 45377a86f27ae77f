package phylo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
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
			a := mustNode(t, got, m.Names[i])
			b := mustNode(t, got, m.Names[j])
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
	if d := pathDistance(tr2, mustNode(t, tr2, "A"), mustNode(t, tr2, "B")); !approxEqual(d, 4) {
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
	if d := pathDistance(tr3, mustNode(t, tr3, "A"), mustNode(t, tr3, "B")); !approxEqual(d, 2) {
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
	if ab := tr.Node(mustNode(t, tr, "A")).Parent; ab != tr.Node(mustNode(t, tr, "B")).Parent || tr.LeafCount(ab) != 2 {
		t.Fatalf("A,B do not form a clade")
	}
	if d := pathDistance(tr, mustNode(t, tr, "A"), mustNode(t, tr, "C")); !approxEqual(d, 6) {
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

// kmerMatrix is the k-mer distance matrix (k = 4, through CosineRows)
// of n sequences shaped like dataset D1's: families of 50 proteins of
// 240 residues, the last family cut short when 50 does not divide n.
func kmerMatrix(tb testing.TB, rng *rand.Rand, n int) *DistanceMatrix {
	names, profiles := kmerProfiles(tb, kmerSeqs(rng, (n+49)/50, 50, 240)[:n], 4)
	return ComputeDistances(names, seq.CosineRows(profiles))
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
	a, b, c := mustNode(t, tr, "A"), mustNode(t, tr, "B"), mustNode(t, tr, "C")
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

// njOracle is NeighborJoining as it was before it walked only the live
// clusters: each step sums every row over all n columns and scans
// every (i, j), skipping dead clusters by a branch.
// It is the reference the bit-identity tests hold NeighborJoining to.
// It panics when a step finds no Q below +Inf.
func njOracle(m *DistanceMatrix) (*Tree, error) {
	n := m.Len()
	if n == 0 {
		return nil, fmt.Errorf("phylo: empty distance matrix")
	}
	t := NewTree()
	if n == 1 {
		// Single taxon: a root with one leaf child keeps leaf
		// semantics consistent for consumers.
		root, _ := t.AddNode("", None, 0)
		if _, err := t.AddNode(m.Names[0], root, 0); err != nil {
			return nil, err
		}
		return t, nil
	}
	if n == 2 {
		root, _ := t.AddNode("", None, 0)
		d := m.At(0, 1)
		t.AddNode(m.Names[0], root, d/2)
		t.AddNode(m.Names[1], root, d/2)
		return t, nil
	}

	// Working copy of distances between "active" cluster indices.
	// dist is a full square matrix for cache-friendly row scans.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = m.At(i, j)
		}
	}
	// The tree is assembled bottom-up, but Tree.AddNode requires the
	// parent to exist first, so joins are recorded in a small forest
	// representation and converted top-down at the end.
	type fnode struct {
		name     string
		children []int // indices into forest
		lengths  []float64
	}
	forest := make([]fnode, 0, 2*n)
	active := make([]int, n) // active[i] = forest index of cluster i
	for i := 0; i < n; i++ {
		forest = append(forest, fnode{name: m.Names[i]})
		active[i] = i
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	r := make([]float64, n) // row sums
	remaining := n
	for remaining > 3 {
		// Row sums over alive entries.
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			s := 0.0
			for j := 0; j < n; j++ {
				if alive[j] && j != i {
					s += dist[i][j]
				}
			}
			r[i] = s
		}
		// Find the pair minimizing Q(i,j) = (r-2)d(i,j) - r_i - r_j.
		bestQ := math.Inf(1)
		bi, bj := -1, -1
		rm2 := float64(remaining - 2)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !alive[j] {
					continue
				}
				q := rm2*dist[i][j] - r[i] - r[j]
				if q < bestQ {
					bestQ, bi, bj = q, i, j
				}
			}
		}
		// Branch lengths from the new internal node u to i and j.
		dij := dist[bi][bj]
		li := dij/2 + (r[bi]-r[bj])/(2*rm2)
		lj := dij - li
		if li < 0 {
			li = 0
			lj = dij
		}
		if lj < 0 {
			lj = 0
			li = dij
		}
		u := len(forest)
		forest = append(forest, fnode{
			children: []int{active[bi], active[bj]},
			lengths:  []float64{li, lj},
		})
		// Update distances: cluster bi becomes u; bj dies.
		for k := 0; k < n; k++ {
			if !alive[k] || k == bi || k == bj {
				continue
			}
			duk := (dist[bi][k] + dist[bj][k] - dij) / 2
			if duk < 0 {
				duk = 0
			}
			dist[bi][k] = duk
			dist[k][bi] = duk
		}
		active[bi] = u
		alive[bj] = false
		remaining--
	}
	// Three clusters left: join them at a star root with standard
	// three-point branch lengths.
	var idx []int
	for i := 0; i < n; i++ {
		if alive[i] {
			idx = append(idx, i)
		}
	}
	a, b, c := idx[0], idx[1], idx[2]
	la := (dist[a][b] + dist[a][c] - dist[b][c]) / 2
	lb := (dist[a][b] + dist[b][c] - dist[a][c]) / 2
	lc := (dist[a][c] + dist[b][c] - dist[a][b]) / 2
	clamp := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	}
	root := len(forest)
	forest = append(forest, fnode{
		children: []int{active[a], active[b], active[c]},
		lengths:  []float64{clamp(la), clamp(lb), clamp(lc)},
	})

	// Convert the forest to a Tree.
	out := NewTree()
	var convert func(fi int, parent NodeID, length float64) error
	convert = func(fi int, parent NodeID, length float64) error {
		id, err := out.AddNode(forest[fi].name, parent, length)
		if err != nil {
			return err
		}
		for k, ci := range forest[fi].children {
			if err := convert(ci, id, forest[fi].lengths[k]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := convert(root, None, 0); err != nil {
		return nil, err
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// njOracleOutcome runs njOracle and reports whether it panicked.
func njOracleOutcome(m *DistanceMatrix) (tr *Tree, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			tr, err, panicked = nil, nil, true
		}
	}()
	tr, err = njOracle(m)
	return tr, err, false
}

// njMatrix draws an n-taxon matrix of one kind: "random" distances in
// [0.1, 1.1); "ties" integer distances in [0, 4), so many Q values tie;
// "equal" every distance 1; "nanq" random distances except that taxon
// n/2 is 0.3·MaxFloat64 from every other, so while six or more clusters
// are left its row sum is +Inf and every Q with it is NaN, met in the
// scan after finite ones, yet the tree stays finite; and "overflow"
// random distances except that the first third of the taxa are
// MaxFloat64/2 from everyone, so every row sum is +Inf and every Q of a
// pair touching those taxa is NaN; and "kmer" the k-mer distances of
// kmerMatrix, whose family structure is where the bounded Q-search
// cuts rows short.
func njMatrix(tb testing.TB, n int, kind string, seed int64) *DistanceMatrix {
	rng := rand.New(rand.NewSource(seed))
	if kind == "kmer" {
		return kmerMatrix(tb, rng, n)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("T%03d", i)
	}
	m := NewDistanceMatrix(names)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			var d float64
			switch kind {
			case "random":
				d = 0.1 + rng.Float64()
			case "ties":
				d = float64(rng.Intn(4))
			case "equal":
				d = 1
			case "nanq":
				d = 0.1 + rng.Float64()
				if i == n/2 || j == n/2 {
					d = 0.3 * math.MaxFloat64
				}
			case "overflow":
				d = 0.1 + rng.Float64()
				if j < n/3 {
					d = math.MaxFloat64 / 2
				}
			}
			m.Set(i, j, d)
		}
	}
	return m
}

// sameOutcome reports how one build's result differs from another's:
// the error text, then the Newick text, then node by node the name,
// parent and branch-length bits.
func sameOutcome(got *Tree, gotErr error, want *Tree, wantErr error) error {
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Errorf("error %v, want %v", gotErr, wantErr)
		}
		return nil
	}
	if g, w := got.Newick(), want.Newick(); g != w {
		return fmt.Errorf("Newick\n%s\nwant\n%s", g, w)
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d nodes, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.Node(NodeID(i)), want.Node(NodeID(i))
		if g.Name != w.Name || g.Parent != w.Parent || math.Float64bits(g.Length) != math.Float64bits(w.Length) {
			return fmt.Errorf("node %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// TestNeighborJoiningMatchesOracle holds NeighborJoining to the serial
// full-matrix loop bit for bit — error text, Newick text and every
// branch length's bits — on random, tie-heavy, all-equal, NaN-Q,
// overflowing and family-structured k-mer matrices from 3 taxa up to
// dataset D1's 800.
func TestNeighborJoiningMatchesOracle(t *testing.T) {
	for _, n := range []int{3, 4, 5, 63, 64, 65, 200, 800} {
		if n == 800 && (testing.Short() || raceEnabled) {
			continue
		}
		for _, kind := range []string{"random", "ties", "equal", "nanq", "overflow", "kmer"} {
			m := njMatrix(t, n, kind, int64(n))
			want, wantErr, panicked := njOracleOutcome(m)
			got, err := NeighborJoining(m)
			if panicked {
				if err == nil {
					t.Fatalf("n=%d %s: the oracle found no pair, but NeighborJoining returned a tree", n, kind)
				}
				continue
			}
			if d := sameOutcome(got, err, want, wantErr); d != nil {
				t.Fatalf("n=%d %s: %v", n, kind, d)
			}
		}
	}
}

// TestQSearchBoundsBothOrientations pins the second half of the
// Q-search bound. Slot 2 holds a joined cluster whose row has the pair
// (0, 2), in which slot 2 is hi, and Q(0, 2) = fl(fl(d − r₀) − r₂) ties
// Q(1, 2), found first, and wins on the lower slot. With r₀ = rmax, the
// bound in the lo orientation, fl(fl(d − r₂) − rmax), rounds one ulp
// above that Q; cutting the row on it alone would hand the join to
// (1, 2).
func TestQSearchBoundsBothOrientations(t *testing.T) {
	// Variables, not constants: constant arithmetic would be exact.
	var (
		d02, d12   = 1.4865661205450107, 0.7654508296323121
		r0, r1, r2 = 0.7211152909126985, 0.0, 0.25158069415076423
	)
	q02 := d02 - r0 - r2
	if lo := d02 - r2 - r0; !(lo > q02) || d12-r1-r2 != q02 {
		t.Fatalf("the constants no longer round apart: Q %v, lo-orientation bound %v, Q(1, 2) %v", q02, lo, d12-r1-r2)
	}
	rows := []njRow{{}, {e: []njEntry{{d12, 2, 2}}}, {e: []njEntry{{d02, 0, 0}}}}
	if bi, bj := qSearch(rows, []int{0, 1, 2}, []int32{0, 1, 2}, []float64{r0, r1, r2}, 1, r0); bi != 0 || bj != 2 {
		t.Fatalf("qSearch chose (%d, %d), want (0, 2)", bi, bj)
	}
}

func TestNeighborJoiningRejectsNonFinite(t *testing.T) {
	testRejectsNonFinite(t, NeighborJoining, 5)
}

func TestUPGMARejectsNonFinite(t *testing.T) {
	testRejectsNonFinite(t, UPGMA, 3)
}

// testRejectsNonFinite checks that build returns an error, and never
// panics, on an all-NaN 5-taxon matrix (the serial NJ loop panicked
// with index out of range [-1]: no Q is below +Inf) and on ±Inf
// entries, naming the first non-finite entry in row order; and on an
// overflowing n-taxon matrix whose entries are all MaxFloat64, where a
// step finds no join below +Inf.
func testRejectsNonFinite(t *testing.T, build func(*DistanceMatrix) (*Tree, error), overflowN int) {
	t.Helper()
	names := []string{"A", "B", "C", "D", "E"}
	fill := func(n int, d float64) *DistanceMatrix {
		m := NewDistanceMatrix(names[:n])
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				m.Set(i, j, d)
			}
		}
		return m
	}
	inf := fill(5, 1)
	inf.Set(3, 2, math.Inf(-1))
	inf.Set(4, 0, math.Inf(1))
	for _, c := range []struct {
		name string
		m    *DistanceMatrix
		want string
	}{
		{"all-NaN", fill(5, math.NaN()), `distance between "B" and "A" is NaN`},
		{"two-taxa-NaN", fill(2, math.NaN()), `distance between "B" and "A" is NaN`},
		{"inf", inf, `distance between "D" and "C" is -Inf`},
		{"overflow", fill(overflowN, math.MaxFloat64), "found no pair"},
	} {
		tr, err := build(c.m)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: tree %v, error %v; want an error containing %q", c.name, tr, err, c.want)
		}
	}
}

// fuzzMatrix decodes a matrix: the first byte gives n in [0, 12], and
// each later byte one lower-triangle entry in row order (missing ones
// are 0). Bytes 251–255 are −0, MaxFloat64, −Inf, +Inf and NaN; any
// other byte b is (b − 16)/8, so entries run from −2 to 29.25 in steps
// that tie often.
func fuzzMatrix(data []byte) *DistanceMatrix {
	n := 0
	if len(data) > 0 {
		n, data = int(data[0])%13, data[1:]
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i)
	}
	m := NewDistanceMatrix(names)
	for k := range m.tri {
		if k == len(data) {
			break
		}
		switch b := data[k]; b {
		case 251:
			m.tri[k] = math.Copysign(0, -1)
		case 252:
			m.tri[k] = math.MaxFloat64
		case 253:
			m.tri[k] = math.Inf(-1)
		case 254:
			m.tri[k] = math.Inf(1)
		case 255:
			m.tri[k] = math.NaN()
		default:
			m.tri[k] = float64(int(b)-16) / 8
		}
	}
	return m
}

// FuzzNeighborJoining: NeighborJoining never panics; on a matrix with a
// NaN or ±Inf entry it returns the error naming the first one; where
// the serial loop panicked (no Q below +Inf) it returns an error; and
// otherwise it equals the serial loop bit for bit.
func FuzzNeighborJoining(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzMatrix(data)
		got, err := NeighborJoining(m)
		if finite := m.checkFinite(); finite != nil {
			if fmt.Sprint(err) != finite.Error() {
				t.Fatalf("error %v, want %v", err, finite)
			}
			return
		}
		want, wantErr, panicked := njOracleOutcome(m)
		if panicked {
			if err == nil {
				t.Fatal("the oracle found no pair, but NeighborJoining returned a tree")
			}
			return
		}
		if d := sameOutcome(got, err, want, wantErr); d != nil {
			t.Fatal(d)
		}
	})
}
