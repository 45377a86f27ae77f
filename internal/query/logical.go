package query

import (
	"fmt"
	"strings"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// Catalog supplies the planner with tables — whose indexes it sizes
// scans and joins by — and the phylogenetic tree backing
// WITHIN_SUBTREE, and the executor with the pinned snapshot a statement
// reads: rows are read only through the snapshot's views, never through
// Table.
type Catalog interface {
	// Table returns the named base table.
	Table(name string) (*store.Table, error)
	// Tree returns the current phylogenetic tree, or nil when the
	// catalog has none.
	Tree() *phylo.Tree
	// PinSnapshot pins an MVCC snapshot of the backing store: Run reads
	// every table of a statement at the one it pins.
	PinSnapshot() *store.SnapshotHandle
}

// LogicalPlan is a relational operator tree produced by the planner
// and transformed by the optimizer.
type LogicalPlan interface {
	Schema() *planSchema
	Children() []LogicalPlan
	// describe renders one line for EXPLAIN.
	describe() string
}

// ScanNode reads a base table. Conjuncts are predicates pushed into
// the scan; the physical planner chooses an access path from them.
type ScanNode struct {
	Table string
	Alias string
	// schema describes the rows the scan emits: base, narrowed to proj
	// once column pruning has run.
	schema *planSchema
	// base is the table's full schema; Conjuncts bind against it.
	base *planSchema
	// proj lists the table columns the scan emits, in order; nil emits
	// them all. pruneColumns sets it, so dead columns are never copied
	// out of the store.
	proj      []int
	Conjuncts []Expr
	// topK is set when ORDER BY one of this scan's columns LIMIT k sits
	// directly above it (see pushTopK).
	topK *scanTopK
}

func (s *ScanNode) Schema() *planSchema     { return s.schema }
func (s *ScanNode) Children() []LogicalPlan { return nil }

// colsNote renders the projection of a narrowed scan.
func (s *ScanNode) colsNote() string {
	if s.proj == nil {
		return ""
	}
	names := make([]string, len(s.schema.cols))
	for i, c := range s.schema.cols {
		names[i] = c.Name
	}
	return " cols=(" + strings.Join(names, ", ") + ")"
}

func (s *ScanNode) describe() string {
	d := fmt.Sprintf("Scan %s", s.Table)
	if s.Alias != s.Table {
		d += " AS " + s.Alias
	}
	d += s.colsNote()
	if len(s.Conjuncts) > 0 {
		parts := make([]string, len(s.Conjuncts))
		for i, c := range s.Conjuncts {
			parts[i] = c.String()
		}
		d += " [pushed: " + strings.Join(parts, " AND ") + "]"
	}
	return d
}

// FilterNode applies a predicate.
type FilterNode struct {
	Input LogicalPlan
	Pred  Expr
}

func (f *FilterNode) Schema() *planSchema     { return f.Input.Schema() }
func (f *FilterNode) Children() []LogicalPlan { return []LogicalPlan{f.Input} }
func (f *FilterNode) describe() string        { return fmt.Sprintf("Filter %s", f.Pred) }

// JoinNode is an inner join with an arbitrary ON condition; the
// physical planner extracts equi-pairs for the hash join.
type JoinNode struct {
	Left, Right LogicalPlan
	Cond        Expr
	// schema describes the rows the join emits: Left's columns then
	// Right's, narrowed to proj once column pruning has run.
	schema *planSchema
	// proj lists the columns of Left ++ Right the join emits, in order;
	// nil emits them all. pruneInput sets it to what the parent reads, so
	// join keys and residual-only columns are never materialized.
	proj []int
	// buildLeft is set when join ordering estimated Left the smaller
	// input: the hash join then hashes Left and probes with Right.
	buildLeft bool
	// buildEst is join ordering's row estimate for the hashed input; 0
	// when it made none (probePath then leaves the probe alone).
	buildEst float64
}

func (j *JoinNode) Schema() *planSchema     { return j.schema }
func (j *JoinNode) Children() []LogicalPlan { return []LogicalPlan{j.Left, j.Right} }
func (j *JoinNode) describe() string        { return fmt.Sprintf("Join ON %s", j.Cond) }

// colsNote renders the output projection of a narrowed join.
func (j *JoinNode) colsNote() string {
	if j.proj == nil {
		return ""
	}
	names := make([]string, len(j.schema.cols))
	for i, c := range j.schema.cols {
		names[i] = c.Name
		if c.Qualifier != "" {
			names[i] = c.Qualifier + "." + c.Name
		}
	}
	return " cols=(" + strings.Join(names, ", ") + ")"
}

// ProjectNode computes output expressions.
type ProjectNode struct {
	Input  LogicalPlan
	Exprs  []Expr
	Names  []string
	schema *planSchema
}

func (p *ProjectNode) Schema() *planSchema     { return p.schema }
func (p *ProjectNode) Children() []LogicalPlan { return []LogicalPlan{p.Input} }
func (p *ProjectNode) describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// AggNode groups and aggregates.
type AggNode struct {
	Input   LogicalPlan
	GroupBy []Expr
	Aggs    []*AggExpr
	Names   []string // output column names: groups then aggregates
	schema  *planSchema
}

func (a *AggNode) Schema() *planSchema     { return a.schema }
func (a *AggNode) Children() []LogicalPlan { return []LogicalPlan{a.Input} }
func (a *AggNode) describe() string        { return "Aggregate " + a.items() }

// items renders the group keys, then the aggregates.
func (a *AggNode) items() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	for _, ag := range a.Aggs {
		parts = append(parts, ag.String())
	}
	return strings.Join(parts, ", ")
}

// SortNode orders rows.
type SortNode struct {
	Input LogicalPlan
	Keys  []OrderKey
}

func (s *SortNode) Schema() *planSchema     { return s.Input.Schema() }
func (s *SortNode) Children() []LogicalPlan { return []LogicalPlan{s.Input} }
func (s *SortNode) describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// LimitNode caps the row count.
type LimitNode struct {
	Input LogicalPlan
	N     int
}

func (l *LimitNode) Schema() *planSchema     { return l.Input.Schema() }
func (l *LimitNode) Children() []LogicalPlan { return []LogicalPlan{l.Input} }
func (l *LimitNode) describe() string        { return fmt.Sprintf("Limit %d", l.N) }

// mapInputs returns a shallow copy of p whose inputs are f of p's
// inputs, so a pass names only the node kinds it changes and sets their
// fields on the copy. A scan has no inputs and is returned as it is: a
// pass copies a scan before changing it.
func mapInputs(p LogicalPlan, f func(LogicalPlan) LogicalPlan) LogicalPlan {
	switch n := p.(type) {
	case *FilterNode:
		out := *n
		out.Input = f(n.Input)
		return &out
	case *JoinNode:
		out := *n
		out.Left, out.Right = f(n.Left), f(n.Right)
		return &out
	case *ProjectNode:
		out := *n
		out.Input = f(n.Input)
		return &out
	case *AggNode:
		out := *n
		out.Input = f(n.Input)
		return &out
	case *SortNode:
		out := *n
		out.Input = f(n.Input)
		return &out
	case *LimitNode:
		out := *n
		out.Input = f(n.Input)
		return &out
	}
	return p
}

// ExplainPlan renders a logical plan as an indented tree.
func ExplainPlan(p LogicalPlan) string {
	var b strings.Builder
	var walk func(n LogicalPlan, depth int)
	walk = func(n LogicalPlan, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.describe())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}

// scanSchema builds the plan schema of a base table under an alias.
func scanSchema(t *store.Table, alias string) *planSchema {
	s := &planSchema{}
	for _, c := range t.Schema().Columns {
		s.cols = append(s.cols, planCol{Qualifier: alias, Name: c.Name, Kind: c.Kind})
	}
	return s
}

// BuildLogical translates a parsed statement into the initial
// (unoptimized) logical plan: scans joined in syntactic order, WHERE
// as one filter, then aggregation, projection, sort, limit.
func BuildLogical(stmt *SelectStmt, cat Catalog) (LogicalPlan, error) {
	// Base relation.
	seen := map[string]bool{}
	mkScan := func(ref TableRef) (*ScanNode, error) {
		t, err := cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		alias := ref.EffectiveAlias()
		if seen[alias] {
			return nil, fmt.Errorf("query: duplicate table alias %q", alias)
		}
		seen[alias] = true
		schema := scanSchema(t, alias)
		return &ScanNode{Table: ref.Name, Alias: alias, schema: schema, base: schema}, nil
	}
	plan, err := mkScan(stmt.From)
	if err != nil {
		return nil, err
	}
	var cur LogicalPlan = plan
	for _, j := range stmt.Joins {
		right, err := mkScan(j.Table)
		if err != nil {
			return nil, err
		}
		jn := &JoinNode{Left: cur, Right: right, Cond: j.On}
		jn.schema = cur.Schema().concat(right.Schema())
		// Validate the ON condition binds.
		if _, err := bindVec(j.On, bindEnv{schema: jn.schema, cat: cat, tree: cat.Tree(), validateOnly: true}); err != nil {
			return nil, fmt.Errorf("query: JOIN ON: %w", err)
		}
		cur = jn
	}
	if stmt.Where != nil {
		if containsAgg(stmt.Where) {
			return nil, fmt.Errorf("query: aggregates not allowed in WHERE")
		}
		if _, err := bindVec(stmt.Where, bindEnv{schema: cur.Schema(), cat: cat, tree: cat.Tree(), validateOnly: true}); err != nil {
			return nil, err
		}
		cur = &FilterNode{Input: cur, Pred: stmt.Where}
	}

	// Aggregation: triggered by GROUP BY or aggregate select items.
	hasAgg := len(stmt.GroupBy) > 0
	for _, it := range stmt.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	if stmt.Having != nil && !hasAgg {
		return nil, fmt.Errorf("query: HAVING requires GROUP BY or aggregates")
	}
	if hasAgg {
		cur, err = buildAggregate(stmt, cur, cat)
		if err != nil {
			return nil, err
		}
	} else {
		cur, err = buildProjection(stmt, cur, cat)
		if err != nil {
			return nil, err
		}
	}

	if len(stmt.Order) > 0 {
		cur, err = buildSort(stmt, cur, cat)
		if err != nil {
			return nil, err
		}
	}
	if stmt.Limit >= 0 {
		cur = &LimitNode{Input: cur, N: stmt.Limit}
	}
	return cur, nil
}

// buildSort places the SortNode. Keys that bind against the current
// output schema sort directly; keys referencing pruned base columns
// (ORDER BY length with SELECT accession) are carried through the
// projection as hidden columns, sorted on, and dropped by a final
// projection — the standard hidden-sort-column technique.
func buildSort(stmt *SelectStmt, cur LogicalPlan, cat Catalog) (LogicalPlan, error) {
	outEnv := bindEnv{schema: cur.Schema(), cat: cat, tree: cat.Tree(), validateOnly: true}
	// An order key that textually matches an output column (the
	// "ORDER BY COUNT(*)" case, where the aggregate became an output
	// column) is rewritten to a reference to that column.
	order := make([]OrderKey, len(stmt.Order))
	copy(order, stmt.Order)
	for i, k := range order {
		if _, err := bindVec(k.Expr, outEnv); err == nil {
			continue // resolves directly; leave it alone
		}
		rendered := k.Expr.String()
		for _, c := range cur.Schema().cols {
			if c.Name == rendered && c.Qualifier == "" {
				order[i].Expr = &ColumnRef{Name: rendered}
				break
			}
		}
	}
	stmt = &SelectStmt{
		Items: stmt.Items, From: stmt.From, Joins: stmt.Joins,
		Where: stmt.Where, GroupBy: stmt.GroupBy, Order: order,
		Limit: stmt.Limit, Explain: stmt.Explain, Analyze: stmt.Analyze,
	}
	allBind := true
	for _, k := range stmt.Order {
		if _, err := bindVec(k.Expr, outEnv); err != nil {
			allBind = false
			break
		}
	}
	if allBind {
		return &SortNode{Input: cur, Keys: stmt.Order}, nil
	}
	proj, ok := cur.(*ProjectNode)
	if !ok {
		// Aggregate output: keys must reference group keys or
		// aggregate aliases; re-run the binding to surface the error.
		for _, k := range stmt.Order {
			if _, err := bindVec(k.Expr, outEnv); err != nil {
				return nil, fmt.Errorf("query: ORDER BY: %w", err)
			}
		}
		return &SortNode{Input: cur, Keys: stmt.Order}, nil
	}
	inEnv := bindEnv{schema: proj.Input.Schema(), cat: cat, tree: cat.Tree(), validateOnly: true}
	extended := &ProjectNode{
		Input:  proj.Input,
		Exprs:  append([]Expr(nil), proj.Exprs...),
		Names:  append([]string(nil), proj.Names...),
		schema: &planSchema{cols: append([]planCol(nil), proj.schema.cols...)},
	}
	keys := make([]OrderKey, len(stmt.Order))
	hidden := 0
	for i, k := range stmt.Order {
		if _, err := bindVec(k.Expr, outEnv); err == nil {
			keys[i] = k
			continue
		}
		be, err := bindVec(k.Expr, inEnv)
		if err != nil {
			return nil, fmt.Errorf("query: ORDER BY: %w", err)
		}
		name := fmt.Sprintf("__sort_%d", i)
		extended.Exprs = append(extended.Exprs, k.Expr)
		extended.Names = append(extended.Names, name)
		extended.schema.cols = append(extended.schema.cols, planCol{Name: name, Kind: be.kind})
		keys[i] = OrderKey{Expr: &ColumnRef{Name: name}, Desc: k.Desc}
		hidden++
	}
	sorted := &SortNode{Input: extended, Keys: keys}
	// Drop the hidden columns.
	drop := &ProjectNode{
		Input:  sorted,
		schema: &planSchema{cols: append([]planCol(nil), proj.schema.cols...)},
	}
	for _, name := range proj.Names {
		drop.Exprs = append(drop.Exprs, &ColumnRef{Name: name})
		drop.Names = append(drop.Names, name)
	}
	return drop, nil
}

// buildProjection constructs the ProjectNode for a non-aggregate
// query, expanding `*`.
func buildProjection(stmt *SelectStmt, input LogicalPlan, cat Catalog) (LogicalPlan, error) {
	var exprs []Expr
	var names []string
	schema := &planSchema{}
	for _, it := range stmt.Items {
		if it.Star {
			for _, c := range input.Schema().cols {
				exprs = append(exprs, &ColumnRef{Qualifier: c.Qualifier, Name: c.Name})
				names = append(names, c.Name)
				schema.cols = append(schema.cols, planCol{Name: c.Name, Kind: c.Kind})
			}
			continue
		}
		be, err := bindVec(it.Expr, bindEnv{schema: input.Schema(), cat: cat, tree: cat.Tree(), validateOnly: true})
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = it.Expr.String()
		}
		exprs = append(exprs, it.Expr)
		names = append(names, name)
		schema.cols = append(schema.cols, planCol{Name: name, Kind: be.kind})
	}
	return &ProjectNode{Input: input, Exprs: exprs, Names: names, schema: schema}, nil
}

// buildAggregate constructs the AggNode (and a trailing projection
// when select items mix group keys and aggregates in expressions).
func buildAggregate(stmt *SelectStmt, input LogicalPlan, cat Catalog) (LogicalPlan, error) {
	env := bindEnv{schema: input.Schema(), cat: cat, tree: cat.Tree(), validateOnly: true}
	// Validate group-by expressions.
	for _, g := range stmt.GroupBy {
		if containsAgg(g) {
			return nil, fmt.Errorf("query: aggregates not allowed in GROUP BY")
		}
		if _, err := bindVec(g, env); err != nil {
			return nil, err
		}
	}
	node := &AggNode{Input: input, GroupBy: stmt.GroupBy}
	schema := &planSchema{}
	uniqueName := func(base string) string {
		name := base
		n := 2
		for {
			dup := false
			for _, existing := range node.Names {
				if existing == name {
					dup = true
					break
				}
			}
			if !dup {
				return name
			}
			name = fmt.Sprintf("%s_%d", base, n)
			n++
		}
	}
	for _, g := range stmt.GroupBy {
		be, _ := bindVec(g, env)
		name := uniqueName(g.String())
		node.Names = append(node.Names, name)
		schema.cols = append(schema.cols, planCol{Name: name, Kind: be.kind})
	}
	// Each select item must be a group-by expression or a single
	// aggregate call (the common SQL subset). itemNames records which
	// aggregate-output column each select item maps to, in item
	// order, so a final projection can restore SELECT order.
	itemNames := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("query: SELECT * not allowed with GROUP BY/aggregates")
		}
		if agg, ok := it.Expr.(*AggExpr); ok {
			if !agg.Star {
				if containsAgg(agg.Arg) {
					return nil, fmt.Errorf("query: nested aggregates not allowed")
				}
				if _, err := bindVec(agg.Arg, env); err != nil {
					return nil, err
				}
			}
			base := it.Alias
			if base == "" {
				base = agg.String()
			}
			name := uniqueName(base)
			node.Aggs = append(node.Aggs, agg)
			node.Names = append(node.Names, name)
			kind := store.KindFloat
			if agg.Func == AggCount {
				kind = store.KindInt
			} else if !agg.Star {
				be, _ := bindVec(agg.Arg, env)
				if agg.Func == AggMin || agg.Func == AggMax {
					kind = be.kind
				}
			}
			schema.cols = append(schema.cols, planCol{Name: name, Kind: kind})
			itemNames[i] = name
			continue
		}
		// Must match a group-by expression textually.
		gi := -1
		for k, g := range stmt.GroupBy {
			if g.String() == it.Expr.String() {
				gi = k
				break
			}
		}
		if gi < 0 {
			return nil, fmt.Errorf("query: %s is neither aggregated nor in GROUP BY", it.Expr)
		}
		if it.Alias != "" {
			node.Names[gi] = it.Alias
			schema.cols[gi].Name = it.Alias
		}
		itemNames[i] = node.Names[gi]
	}
	node.schema = schema

	var out LogicalPlan = node
	if stmt.Having != nil {
		pred, err := rewriteHaving(stmt.Having, node, schema, uniqueName, env)
		if err != nil {
			return nil, err
		}
		// Validate the rewritten predicate binds against the
		// (possibly extended) aggregate output.
		if _, err := bindVec(pred, bindEnv{schema: schema, cat: cat, tree: cat.Tree(), validateOnly: true}); err != nil {
			return nil, fmt.Errorf("query: HAVING: %w", err)
		}
		out = &FilterNode{Input: node, Pred: pred}
	}

	// Restore SELECT order with a projection when it differs from the
	// aggregate's groups-then-aggregates layout (always the case when
	// HAVING added hidden aggregates).
	inOrder := len(itemNames) == len(node.Names)
	if inOrder {
		for i := range itemNames {
			if itemNames[i] != node.Names[i] {
				inOrder = false
				break
			}
		}
	}
	if inOrder {
		return out, nil
	}
	proj := &ProjectNode{Input: out, schema: &planSchema{}}
	for _, name := range itemNames {
		proj.Exprs = append(proj.Exprs, &ColumnRef{Name: name})
		proj.Names = append(proj.Names, name)
		for _, c := range schema.cols {
			if c.Name == name {
				proj.schema.cols = append(proj.schema.cols, c)
				break
			}
		}
	}
	return proj, nil
}

// rewriteHaving turns a HAVING predicate into one evaluable over the
// aggregate's output: aggregate calls become references to aggregate
// output columns (appending hidden aggregates when the call is not in
// the SELECT list), and qualified group references are renamed to
// their output column names.
func rewriteHaving(e Expr, node *AggNode, schema *planSchema, uniqueName func(string) string, inputEnv bindEnv) (Expr, error) {
	switch x := e.(type) {
	case *AggExpr:
		if !x.Star {
			if containsAgg(x.Arg) {
				return nil, fmt.Errorf("query: nested aggregates not allowed in HAVING")
			}
			if _, err := bindVec(x.Arg, inputEnv); err != nil {
				return nil, fmt.Errorf("query: HAVING: %w", err)
			}
		}
		// Reuse an existing aggregate output when the call matches.
		rendered := x.String()
		for i, agg := range node.Aggs {
			if agg.String() == rendered {
				return &ColumnRef{Name: node.Names[len(node.GroupBy)+i]}, nil
			}
		}
		name := uniqueName(rendered)
		node.Aggs = append(node.Aggs, x)
		node.Names = append(node.Names, name)
		kind := store.KindFloat
		if x.Func == AggCount {
			kind = store.KindInt
		} else if !x.Star {
			if be, err := bindVec(x.Arg, inputEnv); err == nil && (x.Func == AggMin || x.Func == AggMax) {
				kind = be.kind
			}
		}
		schema.cols = append(schema.cols, planCol{Name: name, Kind: kind})
		return &ColumnRef{Name: name}, nil
	case *ColumnRef:
		// A group key may be rendered with a qualifier ("p.family")
		// while the output column carries the rendered name.
		rendered := x.String()
		for _, c := range schema.cols {
			if c.Name == rendered && c.Qualifier == "" {
				return &ColumnRef{Name: rendered}, nil
			}
		}
		return x, nil
	case *BinaryExpr:
		l, err := rewriteHaving(x.L, node, schema, uniqueName, inputEnv)
		if err != nil {
			return nil, err
		}
		r, err := rewriteHaving(x.R, node, schema, uniqueName, inputEnv)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *NotExpr:
		in, err := rewriteHaving(x.E, node, schema, uniqueName, inputEnv)
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: in}, nil
	case *NegExpr:
		in, err := rewriteHaving(x.E, node, schema, uniqueName, inputEnv)
		if err != nil {
			return nil, err
		}
		return &NegExpr{E: in}, nil
	}
	return e, nil
}
