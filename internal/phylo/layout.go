package phylo

// Layout assigns 2-D display coordinates to every node using the
// standard rectangular phylogram convention: X is the cumulative
// branch length from the root and Y places leaves at consecutive
// integer rows (preorder) with internal nodes centered over their
// children. The mobile layer uses these coordinates for viewport
// clipping.
type Layout struct {
	// X and Y are indexed by NodeID, so in preorder. X is the tree's
	// own root-distance array, shared rather than copied: read-only.
	X []float64
	Y []float64
	// Width is the maximum X (tree height in branch-length units).
	Width float64
	// HeightRows is the number of leaf rows.
	HeightRows int
}

// NewLayout computes the layout of an indexed tree.
func NewLayout(t *Tree) *Layout {
	t.mustIndexed()
	n := t.Len()
	l := &Layout{X: t.dist, Y: make([]float64, n)}
	// First pass (preorder = ID order): leaf rows.
	row := 0
	for id := range NodeID(n) {
		if l.X[id] > l.Width {
			l.Width = l.X[id]
		}
		if t.isLeaf(id) {
			l.Y[id] = float64(row)
			row++
		}
	}
	l.HeightRows = row
	// Second pass (reverse preorder = children before parents):
	// internal Y is the mean of child Y.
	for id := NodeID(n) - 1; id >= 0; id-- {
		children := t.children(id)
		if len(children) == 0 {
			continue
		}
		sum := 0.0
		for _, c := range children {
			sum += l.Y[c]
		}
		l.Y[id] = sum / float64(len(children))
	}
	return l
}
