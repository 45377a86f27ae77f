package phylo

import (
	"fmt"
	"math"
	"slices"
)

// NeighborJoining builds an unrooted-then-rooted tree from a distance
// matrix with the Saitou–Nei neighbor-joining algorithm. Each of the
// n − 3 joins computes every live cluster's row sum, finds the pair
// minimizing Q(i, j) = (r − 2)·d(i, j) − rᵢ − rⱼ, and replaces the
// joined pair by one cluster. The final three-way join is resolved by
// rooting at the last internal node, which is the usual convention for
// displaying NJ trees.
//
// The Q-search is RapidNJ's bounded search (Simonsen, Mailund &
// Pedersen, WABI 2008). Every live cluster keeps a row of its pairs,
// sorted by distance as far as a scan has read it (see njRow), and a
// row is read only until the bound in qSearch shows that no later pair
// can win. The rows take 16 bytes a pair beside the n × n working
// matrix's 8 (82 MB at 3 200 taxa). Row sums read the upper triangle
// once (see rowSums). Each sum adds the same terms in
// the same order as a walk over the full row, every Q is evaluated
// with the lower slot as i, and the winner is the minimum by
// (Q, lower slot, upper slot), the pair a scan of every (i, j) in
// ascending order keeps with a strict <. So the tree is the same bit
// for bit as the full-matrix loop's.
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

	// Working copy of distances between cluster slots: one flat square
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
	active := make([]int32, n) // active[i] = forest index of the cluster in slot i, −1 once dead
	live := make([]int, n)     // live slots, ascending
	for i := 0; i < n; i++ {
		forest = append(forest, fnode{name: m.Names[i]})
		active[i] = int32(i)
		live[i] = i
	}
	rows := leafRows(dist, n)
	r := make([]float64, n) // row sums
	for len(live) > 3 {
		rmax := rowSums(dist, n, live, r)
		rm2 := float64(len(live) - 2)
		bi, bj := qSearch(rows, live, active, r, rm2, rmax)
		if bi < 0 {
			return nil, fmt.Errorf("phylo: neighbor-joining with %d clusters left found no pair with a Q below +Inf", len(live))
		}
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
			children: []int{int(active[bi]), int(active[bj])},
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
		active[bi], active[bj] = int32(u), -1
		pb, _ := slices.BinarySearch(live, bj)
		live = append(live[:pb], live[pb+1:]...)
		rows[bi], rows[bj] = joinedRow(rowI, bi, live, active), njRow{}
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
		children: []int{int(active[a]), int(active[b]), int(active[c])},
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

// njEntry is one pair in a cluster's row: the distance d to the
// cluster that was in slot when the row was built, and that cluster's
// id (its forest index). The entry is stale once active[slot] != id:
// the cluster was joined, and its slot either died or was reused.
type njEntry struct {
	d    float64
	slot int32
	id   int32
}

// njRow is one live cluster's row. e[:sorted] is in ascending d, and
// no entry of e[sorted:] is below any of it: qSearch sorts more of the
// rest only when a scan reaches it (extend), and most scans stop in
// the first few entries.
type njRow struct {
	e      []njEntry
	sorted int
}

// leafRows returns the n leaves' rows: row i holds the upper triangle
// of dist's row i, so every pair of leaves is in exactly one row (its
// lower slot's). The rows share one backing array.
func leafRows(dist []float64, n int) []njRow {
	flat := make([]njEntry, n*(n-1)/2)
	rows := make([]njRow, n)
	for i := 0; i < n-1; i++ {
		row := flat[: n-1-i : n-1-i]
		flat = flat[n-1-i:]
		for k := range row {
			j := i + 1 + k
			row[k] = njEntry{dist[i*n+j], int32(j), int32(j)}
		}
		rows[i].e = row
	}
	return rows
}

// joinedRow returns the row of the cluster just joined into slot s:
// its distances d to every other live slot. A pair whose distance is
// NaN is left out, since its Q is NaN and never wins. The pairs of a
// younger cluster live in that cluster's row, so every live pair is in
// exactly one row with a valid entry.
func joinedRow(d []float64, s int, live []int, active []int32) njRow {
	row := make([]njEntry, 0, len(live)-1)
	for _, k := range live {
		if k != s && !math.IsNaN(d[k]) {
			row = append(row, njEntry{d[k], int32(k), active[k]})
		}
	}
	return njRow{e: row}
}

// extend sorts the next part of the row: the max(16, sorted) smallest
// entries of e[sorted:], or all of them, so a row read to its end is
// sorted in O(m log m) and one read to its first entries in O(m).
func (r *njRow) extend() {
	rest := r.e[r.sorted:]
	if k := max(16, r.sorted); k < len(rest) {
		selectSmallest(rest, k)
		rest = rest[:k]
	}
	sortEntries(rest)
	r.sorted += len(rest)
}

// selectSmallest reorders a so that a[:k] holds its k smallest entries
// by d, in no particular order: a quickselect over Hoare partitions
// around the median of the first, middle and last d, which leaves both
// sides non-empty.
func selectSmallest(a []njEntry, k int) {
	for len(a) > 16 && 0 < k && k < len(a) {
		x, y, z := a[0].d, a[len(a)/2].d, a[len(a)-1].d
		p := max(min(x, y), min(max(x, y), z))
		i, j := -1, len(a)
		for {
			for i++; a[i].d < p; i++ {
			}
			for j--; a[j].d > p; j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		// Now a[:j+1] ≤ p ≤ a[j+1:].
		if k <= j+1 {
			a = a[:j+1]
		} else {
			a, k = a[j+1:], k-(j+1)
		}
	}
	sortEntries(a)
}

// sortEntries sorts a by ascending d. No row holds a NaN.
func sortEntries(a []njEntry) {
	slices.SortFunc(a, func(a, b njEntry) int {
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		}
		return 0
	})
}

// qSearch returns the slots lo < hi of the pair minimizing
// Q = (r − 2)·d − r_lo − r_hi, ties broken by the smaller lo, then the
// smaller hi, or −1, −1 when no Q is below +Inf (a NaN Q never wins).
//
// Each live slot's row is read in ascending d. Rounding is monotone in
// each operand, so with rmax ≥ every row sum, (r − 2)·d − rᵢ − rmax
// computed the way Q is bounds from below every Q in row i from this
// entry on in which slot i is lo, and (r − 2)·d − rmax − rᵢ every one in
// which it is hi (a joined cluster's row holds both). Once both bounds
// are strictly above the best Q so far, no later entry can win or tie,
// and the row is done. A NaN or +Inf rmax makes every bound NaN or
// −Inf, which turns the cut off.
//
// The read prefix of a row is compacted on the way: its stale entries
// are dropped and the valid ones kept, in order, just before the rest,
// so the next step starts past them.
func qSearch(rows []njRow, live []int, active []int32, r []float64, rm2, rmax float64) (bi, bj int) {
	bestQ := math.Inf(1)
	bi, bj = -1, -1
	for _, s := range live {
		row, ri := &rows[s], r[s]
		p, stale := 0, 0
		for ; p < len(row.e); p++ {
			if p == row.sorted {
				row.extend()
			}
			e := row.e[p]
			if rm2*e.d-ri-rmax > bestQ && rm2*e.d-rmax-ri > bestQ {
				break
			}
			k := int(e.slot)
			if active[k] != e.id {
				stale++
				continue
			}
			lo, hi := s, k
			if k < s {
				lo, hi = k, s
			}
			if q := rm2*e.d - r[lo] - r[hi]; q < bestQ || q == bestQ && (lo < bi || lo == bi && hi < bj) {
				bestQ, bi, bj = q, lo, hi
			}
		}
		if stale > 0 {
			row.compact(p, active)
		}
	}
	return bi, bj
}

// compact drops the stale entries of e[:p], a sorted prefix, moving
// the valid ones, in order, up against e[p:].
func (r *njRow) compact(p int, active []int32) {
	w := p
	for k := p - 1; k >= 0; k-- {
		if e := r.e[k]; active[e.slot] == e.id {
			w--
			r.e[w] = e
		}
	}
	r.e, r.sorted = r.e[w:], r.sorted-w
}

// rowSums sets r[i] for each live slot i to the sum of row i over
// every other live column, in ascending column order, and returns the
// largest sum (NaN if any sum is NaN). It reads only the upper
// triangle: walking the live rows in ascending order, entry (i, j),
// j > i, is added both to row i's running sum and to r[j], so r[j]
// meets its columns below j, in ascending order, before row j starts
// from it and adds the columns above. Each sum starts at +0, as a walk
// over the full row does. Four rows share one pass over the live
// columns, which gives four independent add chains while every sum
// keeps its own order.
func rowSums(dist []float64, n int, live []int, r []float64) float64 {
	for _, i := range live {
		r[i] = 0
	}
	p := 0
	for ; p+4 <= len(live); p += 4 {
		i0, i1, i2, i3 := live[p], live[p+1], live[p+2], live[p+3]
		// Slicing every row to d0's length lets the compiler check j
		// once for all five loads below.
		d0 := dist[i0*n : i0*n+n]
		d1, d2, d3, rj := dist[i1*n:][:len(d0)], dist[i2*n:][:len(d0)], dist[i3*n:][:len(d0)], r[:len(d0)]
		// The block's own triangle, row by row.
		s0, s1 := r[i0]+d0[i1], r[i1]+d0[i1]
		s0, s2 := s0+d0[i2], r[i2]+d0[i2]
		s0, s3 := s0+d0[i3], r[i3]+d0[i3]
		s1, s2 = s1+d1[i2], s2+d1[i2]
		s1, s3 = s1+d1[i3], s3+d1[i3]
		s2, s3 = s2+d2[i3], s3+d2[i3]
		for _, j := range live[p+4:] {
			x0, x1, x2, x3 := d0[j], d1[j], d2[j], d3[j]
			s0 += x0
			s1 += x1
			s2 += x2
			s3 += x3
			rj[j] = rj[j] + x0 + x1 + x2 + x3
		}
		r[i0], r[i1], r[i2], r[i3] = s0, s1, s2, s3
	}
	for ; p < len(live); p++ {
		i := live[p]
		d := dist[i*n : i*n+n]
		s := r[i]
		for _, j := range live[p+1:] {
			s += d[j]
			r[j] += d[j]
		}
		r[i] = s
	}
	rmax := math.Inf(-1)
	for _, i := range live {
		if x := r[i]; x > rmax || math.IsNaN(x) {
			rmax = x
		}
	}
	return rmax
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
