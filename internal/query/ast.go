package query

import (
	"fmt"
	"strings"

	"drugtree/internal/store"
)

// Expr is a DTQL expression tree node.
type Expr interface {
	String() string
}

// ColumnRef names a column, optionally qualified by a table alias.
type ColumnRef struct {
	Qualifier string // "" when unqualified
	Name      string
}

func (c *ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// Literal is a constant value.
type Literal struct {
	Val store.Value
}

func (l *Literal) String() string { return l.Val.String() }

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpLike
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpLike: "LIKE",
}

func (op BinOp) String() string { return binOpNames[op] }

// Comparison reports whether the operator is a comparison producing a
// boolean from two scalars.
func (op BinOp) Comparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike:
		return true
	}
	return false
}

// BinaryExpr applies op to two operands.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// NotExpr is logical negation.
type NotExpr struct {
	E Expr
}

func (n *NotExpr) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// NegExpr is arithmetic negation.
type NegExpr struct {
	E Expr
}

func (n *NegExpr) String() string { return fmt.Sprintf("(-%s)", n.E) }

// quoteName renders a node name or SMILES argument as a single-quoted
// DTQL string (a quote inside it doubled), so the rendering parses.
func quoteName(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// SubtreeExpr is the tree-aware predicate
// WITHIN_SUBTREE(column, 'nodeName'): true when the tree node whose
// preorder number is in the given column lies inside the subtree
// rooted at the named node. The optimizer rewrites it to a preorder
// range; unrewritten evaluation resolves it against the catalog tree.
type SubtreeExpr struct {
	Column *ColumnRef // column holding a preorder number
	Node   string     // name of the subtree root (leaf or internal)
}

func (s *SubtreeExpr) String() string {
	return fmt.Sprintf("WITHIN_SUBTREE(%s, %s)", s.Column, quoteName(s.Node))
}

// AncestorExpr is the ancestor-axis predicate
// ANCESTOR_OF(column, 'nodeName'): true when the tree node whose
// preorder number is in the given column lies on the path from the
// root to the named node (inclusive). It serves breadcrumb and
// path-context queries; the optimizer rewrites it to the explicit
// preorder list of the (short) root path.
type AncestorExpr struct {
	Column *ColumnRef
	Node   string
}

func (a *AncestorExpr) String() string {
	return fmt.Sprintf("ANCESTOR_OF(%s, %s)", a.Column, quoteName(a.Node))
}

// TanimotoExpr is the chemical-similarity scalar
// TANIMOTO(column, 'SMILES'): the Tanimoto coefficient (FLOAT in
// [0,1]) between the fingerprint of the SMILES string in the column
// and the fingerprint of the literal. Rows whose column does not
// parse as SMILES score NULL.
type TanimotoExpr struct {
	Column *ColumnRef
	SMILES string
}

func (t *TanimotoExpr) String() string {
	return fmt.Sprintf("TANIMOTO(%s, %s)", t.Column, quoteName(t.SMILES))
}

// SubqueryExpr is an uncorrelated scalar subquery: it must produce
// one column, and at most one row (zero rows yield NULL). It executes
// once, when the enclosing expression is bound.
type SubqueryExpr struct {
	Stmt *SelectStmt
}

func (s *SubqueryExpr) String() string { return "(" + s.Stmt.String() + ")" }

// InSubqueryExpr is `needle IN (SELECT single-column ...)` with
// uncorrelated subquery semantics: the subquery materializes to a set
// once at bind time.
type InSubqueryExpr struct {
	Needle Expr
	Stmt   *SelectStmt
}

func (s *InSubqueryExpr) String() string {
	return fmt.Sprintf("(%s IN (%s))", s.Needle, s.Stmt)
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[AggFunc]string{
	AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX",
}

func (f AggFunc) String() string { return aggNames[f] }

// AggExpr is an aggregate call. Star is COUNT(*); Distinct is
// COUNT(DISTINCT expr).
type AggExpr struct {
	Func     AggFunc
	Arg      Expr // nil when Star
	Star     bool
	Distinct bool
}

func (a *AggExpr) String() string {
	if a.Star {
		return "COUNT(*)"
	}
	if a.Distinct {
		return fmt.Sprintf("%s(DISTINCT %s)", a.Func, a.Arg)
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Arg)
}

// SelectItem is one output column: an expression with an optional
// alias. A bare `*` select is represented by Star.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

func (s SelectItem) String() string {
	if s.Star {
		return "*"
	}
	if s.Alias != "" {
		return fmt.Sprintf("%s AS %s", s.Expr, s.Alias)
	}
	return s.Expr.String()
}

// TableRef names a FROM/JOIN table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// EffectiveAlias returns the alias, defaulting to the table name.
func (t TableRef) EffectiveAlias() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one JOIN ... ON ... element.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderKey is one ORDER BY element.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed DTQL query.
type SelectStmt struct {
	Explain bool
	// Analyze marks EXPLAIN ANALYZE: execute the query and render the
	// plan with per-operator runtime counters. Only meaningful when
	// Explain is set.
	Analyze bool
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   Expr // nil when absent
	GroupBy []Expr
	Having  Expr // nil when absent
	Order   []OrderKey
	Limit   int // -1 when absent
}

func (s *SelectStmt) String() string {
	var b strings.Builder
	if s.Explain {
		b.WriteString("EXPLAIN ")
		if s.Analyze {
			b.WriteString("ANALYZE ")
		}
	}
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	fmt.Fprintf(&b, " FROM %s", s.From.Name)
	if s.From.Alias != "" {
		fmt.Fprintf(&b, " %s", s.From.Alias)
	}
	for _, j := range s.Joins {
		fmt.Fprintf(&b, " JOIN %s", j.Table.Name)
		if j.Table.Alias != "" {
			fmt.Fprintf(&b, " %s", j.Table.Alias)
		}
		fmt.Fprintf(&b, " ON %s", j.On)
	}
	if s.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		fmt.Fprintf(&b, " HAVING %s", s.Having)
	}
	if len(s.Order) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.Order {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// walkExpr visits e and all sub-expressions depth-first.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *NotExpr:
		walkExpr(x.E, fn)
	case *NegExpr:
		walkExpr(x.E, fn)
	case *AggExpr:
		walkExpr(x.Arg, fn)
	case *SubtreeExpr:
		walkExpr(x.Column, fn)
	case *AncestorExpr:
		walkExpr(x.Column, fn)
	case *TanimotoExpr:
		walkExpr(x.Column, fn)
	case *InSubqueryExpr:
		// Only the needle references the outer scope; the subquery is
		// a closed scope of its own.
		walkExpr(x.Needle, fn)
	}
}

// containsAgg reports whether e contains an aggregate call.
func containsAgg(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*AggExpr); ok {
			found = true
		}
	})
	return found
}
