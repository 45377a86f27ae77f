package query

import (
	"context"
	"fmt"
	"strings"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// planCol is one column of an intermediate relation.
type planCol struct {
	Qualifier string
	Name      string
	Kind      store.Kind
}

// planSchema describes the rows flowing between plan operators.
type planSchema struct {
	cols []planCol
}

func (s *planSchema) Len() int { return len(s.cols) }

// resolve maps a column reference to its position, diagnosing unknown
// and ambiguous names.
func (s *planSchema) resolve(ref *ColumnRef) (int, error) {
	i, ok := s.lookup(ref)
	switch {
	case ok:
		return i, nil
	case i >= 0:
		return 0, fmt.Errorf("query: ambiguous column %s", ref)
	}
	return 0, fmt.Errorf("query: unknown column %s", ref)
}

// lookup is resolve without the error, for callers that probe a schema
// expecting misses: ok reports that exactly one column matches, and i is
// that column — or the first of several, or -1 when none matches.
func (s *planSchema) lookup(ref *ColumnRef) (i int, ok bool) {
	found := -1
	for i, c := range s.cols {
		if c.Name != ref.Name || (ref.Qualifier != "" && c.Qualifier != ref.Qualifier) {
			continue
		}
		if found >= 0 {
			return found, false
		}
		found = i
	}
	return found, found >= 0
}

func (s *planSchema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		if c.Qualifier != "" {
			parts[i] = c.Qualifier + "." + c.Name
		} else {
			parts[i] = c.Name
		}
	}
	return strings.Join(parts, ", ")
}

// concat joins two schemas (for joins).
func (s *planSchema) concat(o *planSchema) *planSchema {
	out := &planSchema{cols: make([]planCol, 0, len(s.cols)+len(o.cols))}
	out.cols = append(out.cols, s.cols...)
	out.cols = append(out.cols, o.cols...)
	return out
}

// bindEnv supplies binding context: the input schema, the tree for
// WITHIN_SUBTREE resolution, and the catalog + optimizer options for
// executing uncorrelated subqueries. validateOnly marks planning-time
// binds, which want the errors and the static kinds only: they plan
// subqueries but do not run them (they run at physical binding).
type bindEnv struct {
	ctx          context.Context
	schema       *planSchema
	tree         *phylo.Tree
	cat          Catalog
	snap         *store.SnapshotHandle // statement snapshot subqueries reuse
	dict         *store.Dict           // the snapshot's: coded cells decode through it (nil when validating)
	opts         Options
	validateOnly bool
}

// runSubquery plans (and, unless validating, executes) an
// uncorrelated subquery. It returns nil rows in validate-only mode.
func runSubquery(stmt *SelectStmt, env bindEnv) (*Result, *planSchema, error) {
	if env.cat == nil {
		return nil, nil, fmt.Errorf("query: subqueries require a catalog")
	}
	logical, err := BuildLogical(stmt, env.cat)
	if err != nil {
		return nil, nil, fmt.Errorf("query: subquery: %w", err)
	}
	if logical.Schema().Len() != 1 {
		return nil, nil, fmt.Errorf("query: subquery must produce exactly one column, got %d", logical.Schema().Len())
	}
	if env.validateOnly {
		return nil, logical.Schema(), nil
	}
	// The subquery runs against the outer statement's pinned snapshot
	// (RunAt leaves ownership with the outer statement), so a statement
	// and its subqueries always read one consistent image.
	res, err := NewEngine(env.cat, env.opts).RunAt(env.ctx, stmt, env.snap)
	if err != nil {
		return nil, nil, fmt.Errorf("query: subquery: %w", err)
	}
	return res, logical.Schema(), nil
}

// findTreeNode locates a node by name (leaf or internal) through the
// tree's own name index.
func findTreeNode(t *phylo.Tree, name string) (phylo.NodeID, error) {
	if id, ok := t.NodeByName(name); ok {
		return id, nil
	}
	return phylo.None, fmt.Errorf("query: tree has no node named %q", name)
}

// likeMatch implements SQL LIKE with % (any run) and _ (single char),
// case-sensitive, via iterative wildcard matching.
func likeMatch(s, pattern string) bool {
	// Two-pointer algorithm with backtracking on the last %.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			sBack++
			si = sBack
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
