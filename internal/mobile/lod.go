package mobile

import (
	"slices"

	"drugtree/internal/core"
	"drugtree/internal/phylo"
)

// BuildViewport selects the level-of-detail view of the subtree
// rooted at focus under a node budget: a best-first expansion from
// the focus that always expands the internal node with the largest
// subtree (the clade the eye is drawn to), until the budget is
// exhausted. The nodes come in preorder, focus first, and form a
// connected subtree: focus is the one node whose parent is not among
// them. Each record holds tree facts only (see nodeRecord), so a node
// is collapsed where the view is held: internal, with no node of the
// view naming it as parent. The client draws it as a "+N" placeholder
// from its LeafCount.
func BuildViewport(e *core.Engine, focus phylo.NodeID, budget int) []WireNode {
	var v viewport
	t, layout := e.Tree(), e.Layout()
	v.build(t, focus, budget)
	out := make([]WireNode, len(v.order))
	for i, s := range v.order {
		out[i] = nodeRecord(t, layout, v.view[s].id)
	}
	return out
}

// viewport is one level-of-detail build and the buffers it reuses from
// build to build.
type viewport struct {
	pq    itemHeap
	view  []viewNode // in the order taken, the focus first
	stack []int32    // view slots still to emit
	order []int32    // view slots in preorder
	pres  []int64    // their preorder numbers, ascending
}

// viewNode is one node of the view. An expanded node's children sit
// at view[first : first+kids], in child order; kids is 0 for a node
// left collapsed (and for a leaf).
type viewNode struct {
	id          phylo.NodeID
	first, kids int32
}

// build selects the view of focus under budget into v.view, then
// emits it in preorder into v.order and v.pres.
func (v *viewport) build(t *phylo.Tree, focus phylo.NodeID, budget int) {
	budget = max(budget, 1)
	lo, hi := t.SubtreeInterval(focus)
	// Nodes enter the view only as children of an expanded view node,
	// so every node but focus has its parent in it, and it never
	// outgrows the subtree.
	v.pq = v.pq[:0]
	v.view = slices.Grow(v.view[:0], min(budget, hi-lo+1))
	v.take(t, focus)
	for len(v.pq) > 0 && len(v.view) < budget {
		it := v.pq.pop()
		kids := t.Node(it.id).Children
		if len(kids) == 0 || len(v.view)+len(kids) > budget {
			continue // a leaf, or expanding would blow the budget: stays collapsed
		}
		v.view[it.slot].first, v.view[it.slot].kids = int32(len(v.view)), int32(len(kids))
		for _, c := range kids {
			v.take(t, c)
		}
	}
	// Emit by a depth-first walk of the view: Index numbers children in
	// child order, the order their slots run in, so the walk is the
	// view's preorder and no sort is needed.
	v.order = slices.Grow(v.order[:0], len(v.view))
	v.pres = slices.Grow(v.pres[:0], len(v.view))
	v.stack = append(v.stack[:0], 0)
	for len(v.stack) > 0 {
		s := v.stack[len(v.stack)-1]
		v.stack = v.stack[:len(v.stack)-1]
		n := v.view[s]
		v.order = append(v.order, s)
		v.pres = append(v.pres, int64(n.id))
		for c := n.first + n.kids; c > n.first; c-- {
			v.stack = append(v.stack, c-1)
		}
	}
}

// take adds id to the view and to the expansion heap.
func (v *viewport) take(t *phylo.Tree, id phylo.NodeID) {
	v.pq.push(heapItem{id: id, priority: int64(t.LeafCount(id)), slot: len(v.view)})
	v.view = append(v.view, viewNode{id: id})
}

// nodeRecord is node id's wire record. It holds tree facts only —
// ParentPre is the tree parent, −1 at the tree root alone — so it is
// the same in every view of one tree version, and a delta that
// compares preorder numbers never leaves a held record stale.
func nodeRecord(t *phylo.Tree, layout *phylo.Layout, id phylo.NodeID) WireNode {
	node := t.Node(id)
	return WireNode{
		Pre:       int64(id),
		Name:      node.Name,
		ParentPre: int64(node.Parent),
		IsLeaf:    node.IsLeaf(),
		LeafCount: int64(t.LeafCount(id)),
		Length:    node.Length,
		X:         layout.X[id],
		Y:         layout.Y[id],
	}
}

// trim drops every buffer grown past maxRetained.
func (v *viewport) trim() {
	v.pq, v.view, v.stack = retained(v.pq), retained(v.view), retained(v.stack)
	v.order, v.pres = retained(v.order), retained(v.pres)
}

// lodSession is a LOD-delta session's viewport state: the preorder
// numbers of the nodes the client holds, ascending, and the buffers
// every Open reuses to build the next view and diff it against them.
type lodSession struct {
	held   []int64
	view   viewport
	addAt  []int32
	add    []WireNode
	remove []int64
}

// open builds the view of focus and returns the delta from the held
// nodes to it, which then become the held nodes. add and remove alias
// the session's buffers: they hold until the next open.
func (l *lodSession) open(t *phylo.Tree, layout *phylo.Layout, focus phylo.NodeID, budget int) (add []WireNode, remove []int64) {
	v := &l.view
	v.build(t, focus, budget)
	l.addAt, l.remove = mergeViews(l.held, v.pres, l.addAt[:0], l.remove[:0])
	l.add = l.add[:0]
	for _, i := range l.addAt {
		l.add = append(l.add, nodeRecord(t, layout, v.view[v.order[i]].id))
	}
	add, remove = l.add, l.remove
	// The new view's preorder list is the held set now; the old one's
	// storage takes the next build.
	l.held, v.pres = v.pres, l.held
	l.addAt, l.add, l.remove = retained(l.addAt), retained(l.add), retained(l.remove)
	v.trim()
	return add, remove
}

// FullTree emits every node (the baseline strategy).
func FullTree(e *core.Engine) []WireNode {
	t, layout := e.Tree(), e.Layout()
	out := make([]WireNode, t.Len())
	for p := range out {
		out[p] = nodeRecord(t, layout, phylo.NodeID(p))
	}
	return out
}

// DiffViewports computes the delta from the node set the client holds
// (the pre numbers mapped to true) to the new viewport, whose nodes
// must be in ascending Pre order, as BuildViewport returns them. add
// keeps next's order; remove is ascending.
func DiffViewports(held map[int64]bool, next []WireNode) (add []WireNode, remove []int64) {
	have := make([]int64, 0, len(held))
	for pre, ok := range held {
		if ok {
			have = append(have, pre)
		}
	}
	slices.Sort(have) // a map is unordered; the merge takes ascending lists
	pres := make([]int64, len(next))
	for i, n := range next {
		pres[i] = n.Pre
	}
	at, remove := mergeViews(have, pres, nil, nil)
	if len(at) > 0 {
		add = make([]WireNode, len(at))
		for k, i := range at {
			add[k] = next[i]
		}
	}
	return add, remove
}

// mergeViews walks the ascending held list against the ascending next
// list once, appending to addAt the index in next of every pre number
// held lacks and to remove every held pre number next lacks.
func mergeViews(held, next []int64, addAt []int32, remove []int64) ([]int32, []int64) {
	i, j := 0, 0
	for i < len(held) && j < len(next) {
		switch h, n := held[i], next[j]; {
		case h < n:
			remove = append(remove, h)
			i++
		case h > n:
			addAt = append(addAt, int32(j))
			j++
		default:
			i++
			j++
		}
	}
	remove = append(remove, held[i:]...)
	for ; j < len(next); j++ {
		addAt = append(addAt, int32(j))
	}
	return addAt, remove
}

// heapItem / itemHeap implement a max-heap on subtree leaf count: a
// binary heap over the typed slice that sifts exactly as container/heap
// does (ties pop in the same order), without boxing an item per push
// and pop.
type heapItem struct {
	id       phylo.NodeID
	priority int64
	slot     int // the node's position in the viewport's view
}

type itemHeap []heapItem

func (h *itemHeap) push(it heapItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if s[j].priority <= s[i].priority {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *itemHeap) pop() heapItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].priority > s[j].priority {
			j = j2
		}
		if s[j].priority <= s[i].priority {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}
