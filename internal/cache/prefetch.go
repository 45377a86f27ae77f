package cache

import (
	"sync"

	"drugtree/internal/phylo"
)

// Prefetcher predicts the next subtree a navigating user will open
// from their recent visit history. Two signals drive it:
//
//   - zoom: after visiting a node, its children are likely next
//     (drilling into a clade);
//   - pan: two consecutive sibling visits establish a direction, and
//     the next sibling in that direction is likely next.
//
// The DrugTree engine runs the suggestions through the normal query
// path in the background, populating the semantic cache so the
// interactive request hits.
type Prefetcher struct {
	mu      sync.Mutex
	history []phylo.NodeID
	depth   int // max history length
	// MaxSuggestions bounds the per-visit prefetch fanout.
	MaxSuggestions int
}

// NewPrefetcher creates a prefetcher remembering the last few visits.
func NewPrefetcher() *Prefetcher {
	return &Prefetcher{depth: 8, MaxSuggestions: 4}
}

// RecordVisit notes that the user opened the subtree at node.
func (p *Prefetcher) RecordVisit(node phylo.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.history = append(p.history, node)
	if len(p.history) > p.depth {
		p.history = p.history[len(p.history)-p.depth:]
	}
}

// Reset clears the history (new session).
func (p *Prefetcher) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.history = nil
}

// Suggest returns nodes worth prefetching after the most recent
// visit, best-first, at most MaxSuggestions.
func (p *Prefetcher) Suggest(t *phylo.Tree) []phylo.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.history) == 0 {
		return nil
	}
	cur := p.history[len(p.history)-1]
	if !t.Valid(cur) {
		return nil
	}
	var out []phylo.NodeID
	seen := map[phylo.NodeID]bool{cur: true}
	add := func(id phylo.NodeID) {
		if id != phylo.None && !seen[id] && len(out) < p.MaxSuggestions {
			seen[id] = true
			out = append(out, id)
		}
	}

	// Pan direction from the last two visits when they are siblings.
	if len(p.history) >= 2 {
		prev := p.history[len(p.history)-2]
		if t.Valid(prev) {
			if sib, dir := siblingDirection(t, prev, cur); dir != 0 {
				add(sib)
			}
		}
	}
	// Zoom: children of the current node, widest subtrees first (the
	// user is most likely to open the dominant clade).
	node := t.Node(cur)
	children := append([]phylo.NodeID(nil), node.Children...)
	for i := 0; i < len(children); i++ {
		// Selection sort by leaf count (children lists are tiny).
		best := i
		for j := i + 1; j < len(children); j++ {
			if t.LeafCount(children[j]) > t.LeafCount(children[best]) {
				best = j
			}
		}
		children[i], children[best] = children[best], children[i]
		add(children[i])
	}
	// Fallback: next sibling either way, then the parent.
	if sib := adjacentSibling(t, cur, +1); sib != phylo.None {
		add(sib)
	}
	if sib := adjacentSibling(t, cur, -1); sib != phylo.None {
		add(sib)
	}
	add(node.Parent)
	return out
}

// siblingDirection reports the continuation sibling when prev and cur
// are siblings: visiting child i then child j ⇒ child j+(j-i sign).
// dir is 0 when prev/cur are not siblings.
func siblingDirection(t *phylo.Tree, prev, cur phylo.NodeID) (next phylo.NodeID, dir int) {
	pp, cp := t.Node(prev).Parent, t.Node(cur).Parent
	if pp == phylo.None || pp != cp {
		return phylo.None, 0
	}
	siblings := t.Node(cp).Children
	pi, ci := -1, -1
	for i, s := range siblings {
		if s == prev {
			pi = i
		}
		if s == cur {
			ci = i
		}
	}
	if pi < 0 || ci < 0 || pi == ci {
		return phylo.None, 0
	}
	if ci > pi {
		dir = 1
	} else {
		dir = -1
	}
	ni := ci + dir
	if ni < 0 || ni >= len(siblings) {
		return phylo.None, 0
	}
	return siblings[ni], dir
}

// adjacentSibling returns the sibling at offset dir from id, or None.
func adjacentSibling(t *phylo.Tree, id phylo.NodeID, dir int) phylo.NodeID {
	parent := t.Node(id).Parent
	if parent == phylo.None {
		return phylo.None
	}
	siblings := t.Node(parent).Children
	for i, s := range siblings {
		if s == id {
			ni := i + dir
			if ni >= 0 && ni < len(siblings) {
				return siblings[ni]
			}
			return phylo.None
		}
	}
	return phylo.None
}
