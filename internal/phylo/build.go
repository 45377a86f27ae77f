package phylo

import (
	"fmt"
	"math"
)

// NeighborJoining builds an unrooted-then-rooted tree from a distance
// matrix with the Saitou–Nei neighbor-joining algorithm. Each of the
// n − 3 joins computes every live cluster's row sum, scans
// Q(i, j) = (r − 2)·d(i, j) − rᵢ − rⱼ over every live pair for its
// minimum, and replaces the joined pair by one cluster. The final
// three-way join is resolved by rooting at the last internal node,
// which is the usual convention for displaying NJ trees.
//
// The work walks only the live clusters, held in ascending index
// order, so a step costs about live² and a build about n³/3 rather
// than n³. Every row sum adds the same terms in the same order as a
// walk over all n columns that skips dead ones (plus the +0 diagonal,
// which leaves it unchanged; see rowSums), and the scan meets the live
// pairs in the same (i, j) order and keeps the first strict minimum, so
// the tree is the same bit for bit.
//
// Every distance must be finite: a NaN or ±Inf entry is an error, as
// is a step whose every Q is NaN or +Inf (finite distances near the
// float64 limit can overflow).
func NeighborJoining(m *DistanceMatrix) (*Tree, error) {
	n := m.Len()
	if n == 0 {
		return nil, fmt.Errorf("phylo: empty distance matrix")
	}
	if err := m.checkFinite(); err != nil {
		return nil, err
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

	// Working copy of distances between clusters: one flat square
	// matrix, row i at dist[i*n : i*n+n], for cache-friendly row
	// scans. The diagonal stays +0 throughout.
	dist := make([]float64, n*n)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			d := m.At(i, j)
			dist[i*n+j] = d
			dist[j*n+i] = d
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
	live := make([]int, n)   // live cluster indices, ascending
	for i := 0; i < n; i++ {
		forest = append(forest, fnode{name: m.Names[i]})
		active[i] = i
		live[i] = i
	}
	r := make([]float64, n) // row sums
	for len(live) > 3 {
		rowSums(dist, n, live, r)
		// Find the live positions pa < pb minimizing
		// Q(i, j) = (r − 2)·d(i, j) − rᵢ − rⱼ. The strict < keeps the
		// first minimum in scan order, and a NaN Q never wins.
		rm2 := float64(len(live) - 2)
		bestQ, pa, pb := math.Inf(1), -1, -1
		for a, i := range live {
			row := dist[i*n : i*n+n]
			ri := r[i]
			bk := -1
			for k, j := range live[a+1:] {
				if q := rm2*row[j] - ri - r[j]; q < bestQ {
					bestQ, bk = q, k
				}
			}
			if bk >= 0 {
				pa, pb = a, a+1+bk
			}
		}
		if pa < 0 {
			return nil, fmt.Errorf("phylo: neighbor-joining with %d clusters left found no pair with a Q below +Inf", len(live))
		}
		bi, bj := live[pa], live[pb]
		// Branch lengths from the new internal node u to i and j.
		dij := dist[bi*n+bj]
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
		rowI, rowJ := dist[bi*n:bi*n+n], dist[bj*n:bj*n+n]
		for _, k := range live {
			if k == bi || k == bj {
				continue
			}
			duk := (rowI[k] + rowJ[k] - dij) / 2
			if duk < 0 {
				duk = 0
			}
			rowI[k] = duk
			dist[k*n+bi] = duk
		}
		active[bi] = u
		live = append(live[:pb], live[pb+1:]...)
	}
	// Three clusters left: join them at a star root with standard
	// three-point branch lengths.
	a, b, c := live[0], live[1], live[2]
	dab, dac, dbc := dist[a*n+b], dist[a*n+c], dist[b*n+c]
	la := (dab + dac - dbc) / 2
	lb := (dab + dbc - dac) / 2
	lc := (dac + dbc - dab) / 2
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

// rowSums sets r[i] for each live cluster i to the sum of row i over
// every live column, in ascending column order. The diagonal is summed
// too: it is +0, and a sum that starts at +0 is never −0 (x + y rounds
// to −0 only when both are −0), so adding +0 leaves its bits unchanged.
// Four rows share one pass over live, which gives four independent add
// chains while each row keeps its own order.
func rowSums(dist []float64, n int, live []int, r []float64) {
	p := 0
	for ; p+4 <= len(live); p += 4 {
		i0, i1, i2, i3 := live[p], live[p+1], live[p+2], live[p+3]
		d0, d1 := dist[i0*n:i0*n+n], dist[i1*n:i1*n+n]
		d2, d3 := dist[i2*n:i2*n+n], dist[i3*n:i3*n+n]
		var s0, s1, s2, s3 float64
		for _, j := range live {
			s0 += d0[j]
			s1 += d1[j]
			s2 += d2[j]
			s3 += d3[j]
		}
		r[i0], r[i1], r[i2], r[i3] = s0, s1, s2, s3
	}
	for ; p < len(live); p++ {
		i := live[p]
		d := dist[i*n : i*n+n]
		var s float64
		for _, j := range live {
			s += d[j]
		}
		r[i] = s
	}
}

// UPGMA builds a rooted ultrametric tree by average-linkage
// agglomerative clustering. It is the simpler baseline construction
// and produces trees whose leaf depths are equal (an ultrametric).
func UPGMA(m *DistanceMatrix) (*Tree, error) {
	n := m.Len()
	if n == 0 {
		return nil, fmt.Errorf("phylo: empty distance matrix")
	}
	type cluster struct {
		forestIdx int
		size      int
		height    float64 // distance from cluster root to its leaves
	}
	type fnode struct {
		name     string
		children []int
		lengths  []float64
	}
	if err := m.checkFinite(); err != nil {
		return nil, err
	}
	forest := make([]fnode, 0, 2*n)
	clusters := make([]cluster, 0, n)
	for i := 0; i < n; i++ {
		forest = append(forest, fnode{name: m.Names[i]})
		clusters = append(clusters, cluster{forestIdx: i, size: 1})
	}
	if n == 1 {
		out := NewTree()
		root, _ := out.AddNode("", None, 0)
		if _, err := out.AddNode(m.Names[0], root, 0); err != nil {
			return nil, err
		}
		return out, nil
	}
	// Square working distance matrix between active clusters.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = m.At(i, j)
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	for remaining > 1 {
		best := math.Inf(1)
		bi, bj := -1, -1
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if alive[j] && dist[i][j] < best {
					best, bi, bj = dist[i][j], i, j
				}
			}
		}
		if bi < 0 {
			return nil, fmt.Errorf("phylo: UPGMA with %d clusters left found no pair closer than +Inf", remaining)
		}
		h := best / 2
		u := len(forest)
		forest = append(forest, fnode{
			children: []int{clusters[bi].forestIdx, clusters[bj].forestIdx},
			lengths: []float64{
				math.Max(0, h-clusters[bi].height),
				math.Max(0, h-clusters[bj].height),
			},
		})
		si, sj := float64(clusters[bi].size), float64(clusters[bj].size)
		for k := 0; k < n; k++ {
			if !alive[k] || k == bi || k == bj {
				continue
			}
			d := (si*dist[bi][k] + sj*dist[bj][k]) / (si + sj)
			dist[bi][k] = d
			dist[k][bi] = d
		}
		clusters[bi] = cluster{forestIdx: u, size: clusters[bi].size + clusters[bj].size, height: h}
		alive[bj] = false
		remaining--
	}
	rootIdx := -1
	for i := 0; i < n; i++ {
		if alive[i] {
			rootIdx = clusters[i].forestIdx
			break
		}
	}
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
	if err := convert(rootIdx, None, 0); err != nil {
		return nil, err
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
