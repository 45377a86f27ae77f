package query

import (
	"fmt"
	"math"
	"runtime"

	"drugtree/internal/store"
)

// Options selects which optimizations run. The zero value is the
// naive engine used as the experimental baseline; DefaultOptions turns
// everything on.
type Options struct {
	// SubtreeRewrite turns WITHIN_SUBTREE(col, node) into a preorder
	// range predicate that downstream passes can push into an index.
	SubtreeRewrite bool
	// Pushdown splits WHERE conjuncts and pushes each to the deepest
	// operator covering its columns.
	Pushdown bool
	// JoinReorder applies cost-based join ordering.
	JoinReorder bool
	// UseIndexes lets scans pick index access paths from pushed
	// predicates.
	UseIndexes bool
	// ConstantFold evaluates literal subexpressions at plan time and
	// collapses boolean identities.
	ConstantFold bool
	// PruneColumns projects dead columns away above scans that feed
	// joins, narrowing every intermediate row.
	PruneColumns bool
	// Parallelism is the number of workers the executor may use for
	// scan filters, the hash-join probe, and partial aggregation. 0
	// selects runtime.GOMAXPROCS(0); 1 forces the serial path (the
	// ablation baseline for experiments T1–T4). Parallel and serial
	// execution produce the same result multiset and identical plan
	// text.
	Parallelism int
}

// EffectiveParallelism resolves the Parallelism knob: 0 means "as many
// workers as schedulable CPUs".
func (o Options) EffectiveParallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultOptions enables every optimization.
func DefaultOptions() Options {
	return Options{
		SubtreeRewrite: true, Pushdown: true, JoinReorder: true,
		UseIndexes: true, ConstantFold: true, PruneColumns: true,
	}
}

// NaiveOptions disables every optimization (the baseline engine).
func NaiveOptions() Options { return Options{} }

// Optimize rewrites a logical plan under the given options.
func Optimize(plan LogicalPlan, cat Catalog, opts Options) (LogicalPlan, error) {
	var err error
	if opts.SubtreeRewrite {
		plan, err = rewriteSubtrees(plan, cat)
		if err != nil {
			return nil, err
		}
	}
	if opts.Pushdown {
		plan = pushPredicates(plan)
	}
	if opts.JoinReorder {
		plan = reorderJoins(plan, cat)
	}
	if opts.Pushdown {
		// After join ordering, so the copied predicates change how a scan
		// is read, never which join runs first.
		for propagateSubtrees(plan) {
		}
	}
	if opts.ConstantFold {
		plan = foldPlan(plan)
	}
	if opts.PruneColumns {
		plan = pruneColumns(plan)
	}
	if opts.UseIndexes {
		pushTopK(plan)
	}
	return plan, nil
}

// --- Subtree rewrite ---

// rewriteSubtrees replaces every SubtreeExpr in filters, join
// conditions and scan conjuncts with (col >= lo AND col <= hi) over the
// node's preorder interval. It reports the first error in plan order.
func rewriteSubtrees(plan LogicalPlan, cat Catalog) (LogicalPlan, error) {
	var err error
	expr := func(e Expr, schema *planSchema) Expr {
		out, xerr := rewriteSubtreeExpr(e, cat, schema)
		if xerr != nil {
			if err == nil {
				err = xerr
			}
			return e
		}
		return out
	}
	var rewrite func(LogicalPlan) LogicalPlan
	rewrite = func(p LogicalPlan) LogicalPlan {
		switch n := mapInputs(p, rewrite).(type) {
		case *FilterNode:
			n.Pred = expr(n.Pred, n.Input.Schema())
			return n
		case *JoinNode:
			n.Cond = expr(n.Cond, n.schema)
			return n
		case *ScanNode:
			out := *n
			out.Conjuncts = nil
			for _, c := range n.Conjuncts {
				out.Conjuncts = append(out.Conjuncts, expr(c, n.schema))
			}
			return &out
		default:
			return n
		}
	}
	plan = rewrite(plan)
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// rewriteSubtreeExpr rewrites tree predicates inside an expression
// tree: SubtreeExpr on a preorder column becomes a preorder-interval
// range, AncestorExpr becomes the interval-containment form
// pre ≤ P ≤ end_pre when the relation carries an end_pre column. The
// rest are evaluated against the tree (see bindVecSubtree and
// bindVecAncestor).
func rewriteSubtreeExpr(e Expr, cat Catalog, schema *planSchema) (Expr, error) {
	switch x := e.(type) {
	case *SubtreeExpr:
		tree := cat.Tree()
		if tree == nil {
			return nil, fmt.Errorf("query: WITHIN_SUBTREE requires a tree-backed catalog")
		}
		node, err := findTreeNode(tree, x.Node)
		if err != nil {
			return nil, err
		}
		// A string column carries node names, not preorder numbers:
		// there is no interval to range over, so the membership form
		// stays (pushdown still lands it in scan conjuncts, where the
		// OverlayRead rewrite can recognize it).
		if idx, ok := schema.lookup(x.Column); ok && schema.cols[idx].Kind == store.KindString {
			return e, nil
		}
		lo, hi := tree.SubtreeInterval(node)
		return &BinaryExpr{
			Op: OpAnd,
			L:  &BinaryExpr{Op: OpGe, L: x.Column, R: &Literal{Val: store.IntValue(int64(lo))}},
			R:  &BinaryExpr{Op: OpLe, L: x.Column, R: &Literal{Val: store.IntValue(int64(hi))}},
		}, nil
	case *AncestorExpr:
		tree := cat.Tree()
		if tree == nil {
			return nil, fmt.Errorf("query: ANCESTOR_OF requires a tree-backed catalog")
		}
		node, err := findTreeNode(tree, x.Node)
		if err != nil {
			return nil, err
		}
		endRef := &ColumnRef{Qualifier: x.Column.Qualifier, Name: "end_pre"}
		if _, ok := schema.lookup(endRef); !ok {
			return e, nil // relation lacks end_pre: evaluated by Tree.IsAncestor
		}
		p := int64(node)
		return &BinaryExpr{
			Op: OpAnd,
			L:  &BinaryExpr{Op: OpLe, L: x.Column, R: &Literal{Val: store.IntValue(p)}},
			R:  &BinaryExpr{Op: OpGe, L: endRef, R: &Literal{Val: store.IntValue(p)}},
		}, nil
	case *BinaryExpr:
		l, err := rewriteSubtreeExpr(x.L, cat, schema)
		if err != nil {
			return nil, err
		}
		r, err := rewriteSubtreeExpr(x.R, cat, schema)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *NotExpr:
		in, err := rewriteSubtreeExpr(x.E, cat, schema)
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: in}, nil
	}
	return e, nil
}

// --- Predicate pushdown ---

// splitConjuncts flattens a tree of ANDs into a conjunct list.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// joinConjuncts rebuilds an AND tree (nil for an empty list).
func joinConjuncts(cs []Expr) Expr {
	if len(cs) == 0 {
		return nil
	}
	out := cs[0]
	for _, c := range cs[1:] {
		out = &BinaryExpr{Op: OpAnd, L: out, R: c}
	}
	return out
}

// exprColumns collects the column references an expression makes, in
// walk order, as written: an unqualified reference stays unqualified,
// and the caller resolves it against a schema (coveredBy, for one).
func exprColumns(e Expr) []*ColumnRef {
	var refs []*ColumnRef
	walkExpr(e, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok {
			refs = append(refs, c)
		}
	})
	return refs
}

// coveredBy reports whether every column in e resolves in s.
func coveredBy(e Expr, s *planSchema) bool {
	for _, c := range exprColumns(e) {
		if _, ok := s.lookup(c); !ok {
			return false
		}
	}
	return true
}

// pushPredicates moves filter conjuncts to the deepest covering node.
// A filter whose conjuncts all land below it disappears, so it is
// rebuilt only when some remain rather than copied first.
func pushPredicates(plan LogicalPlan) LogicalPlan {
	if f, ok := plan.(*FilterNode); ok {
		input := pushPredicates(f.Input)
		remaining := pushInto(&input, splitConjuncts(f.Pred))
		if len(remaining) == 0 {
			return input
		}
		return &FilterNode{Input: input, Pred: joinConjuncts(remaining)}
	}
	p := mapInputs(plan, pushPredicates)
	j, ok := p.(*JoinNode)
	if !ok {
		return p
	}
	// Join conditions that only touch one side migrate there.
	var keep []Expr
	for _, c := range splitConjuncts(j.Cond) {
		switch {
		case coveredBy(c, j.Left.Schema()):
			keep = append(keep, pushInto(&j.Left, []Expr{c})...)
		case coveredBy(c, j.Right.Schema()):
			keep = append(keep, pushInto(&j.Right, []Expr{c})...)
		default:
			keep = append(keep, c)
		}
	}
	j.Cond = joinConjuncts(keep)
	if j.Cond == nil {
		j.Cond = &Literal{Val: store.BoolValue(true)}
	}
	return j
}

// pushInto pushes conjuncts into *plan as deep as possible, returning
// the conjuncts that could not be absorbed. *plan is replaced by the
// rewritten subtree. WHERE, the only filter pushed, sits on a scan or a
// join tree of scans; HAVING's sits on an aggregate and stays there.
func pushInto(plan *LogicalPlan, conjs []Expr) []Expr {
	switch n := (*plan).(type) {
	case *ScanNode:
		out := *n
		var remaining []Expr
		for _, c := range conjs {
			if coveredBy(c, n.schema) {
				out.Conjuncts = append(out.Conjuncts, c)
			} else {
				remaining = append(remaining, c)
			}
		}
		*plan = &out
		return remaining
	case *JoinNode:
		out := *n
		var remaining []Expr
		for _, c := range conjs {
			switch {
			case coveredBy(c, out.Left.Schema()):
				remaining = append(remaining, pushInto(&out.Left, []Expr{c})...)
			case coveredBy(c, out.Right.Schema()):
				remaining = append(remaining, pushInto(&out.Right, []Expr{c})...)
			default:
				remaining = append(remaining, c)
			}
		}
		*plan = &out
		return remaining
	}
	return conjs
}

// --- Subtree predicates across equi-joins ---

// propagateSubtrees copies pushed WITHIN_SUBTREE predicates across
// inner equi-join keys: with l = r in a join condition,
// WITHIN_SUBTREE(l, X) on l's scan implies WITHIN_SUBTREE(r, X) on r's
// (every joined row carries equal keys, and NULL keys neither join nor
// lie in a subtree), so the other side can be driven from the clade's
// keys too instead of being read whole and filtered by the join. It
// reports whether it added a conjunct; the caller repeats until nothing
// changes, which carries a predicate along a chain of joins.
func propagateSubtrees(node LogicalPlan) bool {
	changed := false
	if j, ok := node.(*JoinNode); ok {
		for _, c := range splitConjuncts(j.Cond) {
			b, ok := c.(*BinaryExpr)
			if !ok || b.Op != OpEq {
				continue
			}
			l, lok := b.L.(*ColumnRef)
			r, rok := b.R.(*ColumnRef)
			if lok && rok {
				changed = copySubtree(j, l, r) || copySubtree(j, r, l) || changed
			}
		}
	}
	for _, c := range node.Children() {
		changed = propagateSubtrees(c) || changed
	}
	return changed
}

// joinScan finds the scan under an inner-join tree whose schema
// resolves ref to a string column, and the column's name. After
// pushdown a join tree holds only joins and scans.
func joinScan(p LogicalPlan, ref *ColumnRef) (*ScanNode, string) {
	switch n := p.(type) {
	case *ScanNode:
		if i, ok := n.schema.lookup(ref); ok && n.schema.cols[i].Kind == store.KindString {
			return n, n.schema.cols[i].Name
		}
	case *JoinNode:
		if s, name := joinScan(n.Left, ref); s != nil {
			return s, name
		}
		return joinScan(n.Right, ref)
	}
	return nil, ""
}

// copySubtree copies each subtree conjunct on from's scan column to
// to's scan, unless an equal conjunct is already there.
func copySubtree(j *JoinNode, from, to *ColumnRef) bool {
	src, srcCol := joinScan(j, from)
	if src == nil {
		return false
	}
	changed := false
	for _, c := range src.Conjuncts {
		x, ok := c.(*SubtreeExpr)
		if !ok || x.Column.Name != srcCol {
			continue
		}
		dst, dstCol := joinScan(j, to)
		if dst == nil || dst == src {
			return false
		}
		dup := false
		for _, d := range dst.Conjuncts {
			y, ok := d.(*SubtreeExpr)
			dup = dup || (ok && y.Column.Name == dstCol && y.Node == x.Node)
		}
		if !dup {
			dst.Conjuncts = append(dst.Conjuncts[:len(dst.Conjuncts):len(dst.Conjuncts)],
				&SubtreeExpr{Column: &ColumnRef{Qualifier: dst.Alias, Name: dstCol}, Node: x.Node})
			changed = true
		}
	}
	return changed
}

// --- Join reordering ---

// reorderJoins rebuilds chains of inner joins in cost order and marks
// each join's smaller input as its hash-build side, recording that
// input's estimated rows (probePath prices a keyed probe by it). It
// detects a maximal join tree (joins whose children are joins or
// scans), collects the base relations and all equi-conditions, and
// greedily builds a left-deep plan starting from the smallest
// filtered relation, always joining the relation that yields the
// smallest estimated intermediate result. The greedy order is the only
// one priced: no alternative order is enumerated or checked.
func reorderJoins(plan LogicalPlan, cat Catalog) LogicalPlan {
	recurse := func(p LogicalPlan) LogicalPlan { return reorderJoins(p, cat) }
	j, ok := plan.(*JoinNode)
	if !ok {
		return mapInputs(plan, recurse)
	}
	rels, conds, ok := collectJoinTree(j)
	if ok && len(rels) >= 3 {
		return buildJoinOrder(rels, conds, cat)
	}
	// Reordering a 2-way join is a no-op — only its build side is
	// chosen.
	out := mapInputs(j, recurse).(*JoinNode)
	if ok {
		lc, rc := estimateScanRows(rels[0], cat), estimateScanRows(rels[1], cat)
		out.buildLeft, out.buildEst = lc < rc, min(lc, rc)
	}
	return out
}

// collectJoinTree flattens a tree of inner joins over scans into base
// relations and the conjunct list of all join conditions. ok is false
// when any leaf is not a ScanNode (e.g. already-filtered subtrees),
// in which case reordering is skipped conservatively.
func collectJoinTree(j *JoinNode) (rels []*ScanNode, conds []Expr, ok bool) {
	var walk func(p LogicalPlan) bool
	walk = func(p LogicalPlan) bool {
		switch n := p.(type) {
		case *JoinNode:
			conds = append(conds, splitConjuncts(n.Cond)...)
			return walk(n.Left) && walk(n.Right)
		case *ScanNode:
			rels = append(rels, n)
			return true
		}
		return false
	}
	ok = walk(j)
	return rels, conds, ok
}

// estimateScanRows estimates a scan's output cardinality from the
// table's row count and pushed conjuncts.
func estimateScanRows(s *ScanNode, cat Catalog) float64 {
	t, err := cat.Table(s.Table)
	if err != nil {
		return 1000
	}
	rows := float64(t.Len())
	for _, c := range s.Conjuncts {
		rows *= conjunctSelectivity(c, t)
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// conjunctSelectivity estimates the share of t's rows one predicate
// keeps: by an index dive when it compares an indexed column with a
// literal — equality through any index, a range through a B+-tree —
// and by a fixed default otherwise.
func conjunctSelectivity(e Expr, t *store.Table) float64 {
	b, ok := e.(*BinaryExpr)
	if !ok {
		return 0.25
	}
	col, lit, op := extractColLit(b)
	if col == nil {
		return 0.25
	}
	var a store.Access
	if lit != nil {
		a = store.Access{Column: col.Name}
		v := lit.Val
		switch op {
		case OpEq, OpNe:
			a.Keys = []store.Value{v}
		case OpLt, OpLe:
			a.Hi = &v
		case OpGt, OpGe:
			a.Lo = &v
		}
	}
	switch op {
	case OpEq:
		return postingShare(t, a, 0.1)
	case OpNe:
		return 1 - postingShare(t, a, 0.1)
	case OpLt, OpLe, OpGt, OpGe:
		return postingShare(t, a, 0.3)
	case OpAnd:
		return conjunctSelectivity(b.L, t) * conjunctSelectivity(b.R, t)
	case OpOr:
		sl, sr := conjunctSelectivity(b.L, t), conjunctSelectivity(b.R, t)
		return math.Min(1, sl+sr)
	}
	return 0.25
}

// postingShare is the share of t's rows among the postings a visits
// (store.Table.CountPostings), or dflt when no index serves a.
func postingShare(t *store.Table, a store.Access, dflt float64) float64 {
	typ, indexed := t.HasIndex(a.Column)
	rows := t.Len()
	if !indexed || a.Keys == nil && typ != store.IndexBTree || rows == 0 {
		return dflt
	}
	return float64(t.CountPostings(a, 0)) / float64(rows)
}

// extractColLit pulls (column, literal) out of a binary comparison in
// either operand order, with the operator restated as col op lit (lit
// OP col is col flipCompare(OP) lit); literal is nil when both sides
// are columns.
func extractColLit(b *BinaryExpr) (*ColumnRef, *Literal, BinOp) {
	if c, ok := b.L.(*ColumnRef); ok {
		l, _ := b.R.(*Literal)
		return c, l, b.Op
	}
	if c, ok := b.R.(*ColumnRef); ok {
		l, _ := b.L.(*Literal)
		return c, l, flipCompare(b.Op)
	}
	return nil, nil, b.Op
}

// buildJoinOrder greedily assembles a left-deep join over rels.
func buildJoinOrder(rels []*ScanNode, conds []Expr, cat Catalog) LogicalPlan {
	n := len(rels)
	card := make([]float64, n)
	for i, r := range rels {
		card[i] = estimateScanRows(r, cat)
	}
	// Which conjuncts connect which relation pairs? A conjunct is
	// assigned to the minimal set of relations covering its columns.
	type condInfo struct {
		expr Expr
		rels map[int]bool
	}
	infos := make([]condInfo, 0, len(conds))
	for _, c := range conds {
		ci := condInfo{expr: c, rels: map[int]bool{}}
		for _, col := range exprColumns(c) {
			for i, r := range rels {
				if _, ok := r.schema.lookup(col); ok {
					ci.rels[i] = true
				}
			}
		}
		infos = append(infos, ci)
	}

	used := make([]bool, n)
	// Start from the smallest relation.
	start := 0
	for i := 1; i < n; i++ {
		if card[i] < card[start] {
			start = i
		}
	}
	used[start] = true
	var cur LogicalPlan = rels[start]
	curCard := card[start]
	inPlan := map[int]bool{start: true}
	condUsed := make([]bool, len(infos))

	// ndvOf reads a join column's distinct keys from its index.
	ndvOf := func(rel *ScanNode, col string) float64 {
		t, err := cat.Table(rel.Table)
		if err != nil {
			return 100
		}
		if n, ok := t.DistinctKeys(col); ok && n > 0 {
			return float64(n)
		}
		return 100
	}

	for step := 1; step < n; step++ {
		bestIdx := -1
		bestCost := math.Inf(1)
		var bestCard float64
		// Prefer relations connected by an unused condition.
		for cand := 0; cand < n; cand++ {
			if used[cand] {
				continue
			}
			// Estimate the join cardinality with all applicable
			// conditions between plan∪{cand}.
			sel := 1.0
			connected := false
			for k, ci := range infos {
				if condUsed[k] || !ci.rels[cand] {
					continue
				}
				allCovered := true
				for ri := range ci.rels {
					if ri != cand && !inPlan[ri] {
						allCovered = false
						break
					}
				}
				if !allCovered {
					continue
				}
				connected = true
				// Equality conditions reduce by 1/max NDV.
				if b, ok := ci.expr.(*BinaryExpr); ok && b.Op == OpEq {
					lc, _ := b.L.(*ColumnRef)
					rc, _ := b.R.(*ColumnRef)
					if lc != nil && rc != nil {
						var candCol *ColumnRef
						if _, ok := rels[cand].schema.lookup(lc); ok {
							candCol = lc
						} else {
							candCol = rc
						}
						sel /= math.Max(1, ndvOf(rels[cand], candCol.Name))
						continue
					}
				}
				sel *= 0.3
			}
			outCard := curCard * card[cand] * sel
			// Cross joins are punished by their raw cardinality;
			// connected candidates come first naturally.
			cost := outCard
			if !connected {
				cost *= 10 // discourage Cartesian products
			}
			if cost < bestCost {
				bestCost, bestIdx, bestCard = cost, cand, outCard
			}
		}
		// Attach the chosen relation with every now-covered condition.
		cand := bestIdx
		var applied []Expr
		for k, ci := range infos {
			if condUsed[k] || !ci.rels[cand] {
				continue
			}
			allCovered := true
			for ri := range ci.rels {
				if ri != cand && !inPlan[ri] {
					allCovered = false
					break
				}
			}
			if allCovered {
				applied = append(applied, ci.expr)
				condUsed[k] = true
			}
		}
		cond := joinConjuncts(applied)
		if cond == nil {
			cond = &Literal{Val: store.BoolValue(true)}
		}
		// The hash join builds on whichever input is estimated smaller.
		jn := &JoinNode{Left: cur, Right: rels[cand], Cond: cond, buildLeft: curCard < card[cand], buildEst: min(curCard, card[cand])}
		jn.schema = cur.Schema().concat(rels[cand].Schema())
		cur = jn
		curCard = math.Max(1, bestCard)
		used[cand] = true
		inPlan[cand] = true
	}
	// Any condition never covered (shouldn't happen for valid plans)
	// becomes a final filter.
	var leftover []Expr
	for k, ci := range infos {
		if !condUsed[k] {
			leftover = append(leftover, ci.expr)
		}
	}
	if len(leftover) > 0 {
		cur = &FilterNode{Input: cur, Pred: joinConjuncts(leftover)}
	}
	// The reordered schema is a permutation of the original; keep the
	// new column order (projection above restores user order).
	return cur
}
