package mobile

import (
	"sort"

	"drugtree/internal/core"
	"drugtree/internal/phylo"
)

// BuildViewport selects the level-of-detail view of the subtree
// rooted at focus under a node budget: a best-first expansion from
// the focus that always expands the internal node with the largest
// subtree (the clade the eye is drawn to), until the budget is
// exhausted. Internal nodes whose children were pruned are marked
// Collapsed, carrying their leaf count so the client can render a
// "+N" placeholder.
//
// The returned nodes always form a connected subtree containing
// focus, so the client can draw edges from ParentPre alone.
func BuildViewport(e *core.Engine, focus phylo.NodeID, budget int) []WireNode {
	t := e.Tree()
	layout := e.Layout()
	if budget < 1 {
		budget = 1
	}
	var pq itemHeap
	// Nodes enter the view only as children of an expanded view node,
	// so one slice holds it: every node but focus has its parent in it.
	type viewNode struct {
		id       phylo.NodeID
		expanded bool
	}
	lo, hi := t.SubtreeInterval(focus)
	view := make([]viewNode, 0, min(budget, hi-lo+1)) // never outgrows the subtree

	take := func(id phylo.NodeID) {
		pq.push(heapItem{id: id, priority: int64(t.LeafCount(id)), slot: len(view)})
		view = append(view, viewNode{id: id})
	}
	take(focus)
	for len(pq) > 0 && len(view) < budget {
		it := pq.pop()
		node := t.Node(it.id)
		if node.IsLeaf() {
			continue
		}
		if len(view)+len(node.Children) > budget {
			continue // expanding would blow the budget; stays collapsed
		}
		view[it.slot].expanded = true
		for _, c := range node.Children {
			take(c)
		}
	}
	// Emit in preorder for deterministic output: sorting the view costs
	// O(budget log budget) however wide the subtree is.
	sort.Slice(view, func(i, j int) bool { return t.Pre(view[i].id) < t.Pre(view[j].id) })
	out := make([]WireNode, 0, len(view))
	for _, v := range view {
		node := t.Node(v.id)
		parentPre := int64(-1)
		if v.id != focus {
			parentPre = int64(t.Pre(node.Parent))
		}
		out = append(out, WireNode{
			Pre:       int64(t.Pre(v.id)),
			Name:      node.Name,
			ParentPre: parentPre,
			IsLeaf:    node.IsLeaf(),
			Collapsed: !node.IsLeaf() && !v.expanded,
			LeafCount: int64(t.LeafCount(v.id)),
			Length:    node.Length,
			X:         layout.X[v.id],
			Y:         layout.Y[v.id],
		})
	}
	return out
}

// FullTree emits every node (the baseline strategy).
func FullTree(e *core.Engine) []WireNode {
	t := e.Tree()
	layout := e.Layout()
	out := make([]WireNode, 0, t.Len())
	for p := 0; p < t.Len(); p++ {
		id := t.NodeAtPre(p)
		node := t.Node(id)
		parentPre := int64(-1)
		if node.Parent != phylo.None {
			parentPre = int64(t.Pre(node.Parent))
		}
		out = append(out, WireNode{
			Pre:       int64(p),
			Name:      node.Name,
			ParentPre: parentPre,
			IsLeaf:    node.IsLeaf(),
			LeafCount: int64(t.LeafCount(id)),
			Length:    node.Length,
			X:         layout.X[id],
			Y:         layout.Y[id],
		})
	}
	return out
}

// DiffViewports computes the delta from the node set the client holds
// to the new viewport.
func DiffViewports(held map[int64]bool, next []WireNode) (add []WireNode, remove []int64) {
	nextSet := make(map[int64]bool, len(next))
	for _, n := range next {
		nextSet[n.Pre] = true
		if !held[n.Pre] {
			add = append(add, n)
		}
	}
	for pre := range held {
		if !nextSet[pre] {
			remove = append(remove, pre)
		}
	}
	sort.Slice(remove, func(i, j int) bool { return remove[i] < remove[j] })
	return add, remove
}

// heapItem / itemHeap implement a max-heap on subtree leaf count: a
// binary heap over the typed slice that sifts exactly as container/heap
// does (ties pop in the same order), without boxing an item per push
// and pop.
type heapItem struct {
	id       phylo.NodeID
	priority int64
	slot     int // the node's position in BuildViewport's view
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
