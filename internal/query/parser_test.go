package query

import "testing"

func mustParseQ(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseBasicSelect(t *testing.T) {
	stmt := mustParseQ(t, "SELECT accession, family FROM proteins")
	if len(stmt.Items) != 2 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	if stmt.From.Name != "proteins" || stmt.Limit != -1 || stmt.Where != nil {
		t.Fatalf("stmt = %+v", stmt)
	}
}

func TestParseStar(t *testing.T) {
	stmt := mustParseQ(t, "SELECT * FROM proteins")
	if !stmt.Items[0].Star {
		t.Fatal("star not parsed")
	}
}

func TestParseWhere(t *testing.T) {
	stmt := mustParseQ(t, "SELECT * FROM p WHERE a = 1 AND b > 2.5 OR NOT c")
	// OR binds loosest: ((a=1 AND b>2.5) OR (NOT c)).
	top, ok := stmt.Where.(*BinaryExpr)
	if !ok || top.Op != OpOr {
		t.Fatalf("top = %v", stmt.Where)
	}
	l, ok := top.L.(*BinaryExpr)
	if !ok || l.Op != OpAnd {
		t.Fatalf("left = %v", top.L)
	}
	if _, ok := top.R.(*NotExpr); !ok {
		t.Fatalf("right = %v", top.R)
	}
}

func TestParseJoins(t *testing.T) {
	stmt := mustParseQ(t, `SELECT p.accession FROM proteins p
		JOIN activities a ON p.accession = a.protein_id
		JOIN ligands l ON a.ligand_id = l.ligand_id`)
	if len(stmt.Joins) != 2 {
		t.Fatalf("joins = %d", len(stmt.Joins))
	}
	if stmt.From.Alias != "p" || stmt.Joins[0].Table.Alias != "a" {
		t.Fatalf("aliases = %q %q", stmt.From.Alias, stmt.Joins[0].Table.Alias)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	stmt := mustParseQ(t, `SELECT family, COUNT(*) AS n, AVG(length)
		FROM proteins GROUP BY family ORDER BY n DESC, family LIMIT 5`)
	if len(stmt.GroupBy) != 1 || len(stmt.Order) != 2 || stmt.Limit != 5 {
		t.Fatalf("stmt = %+v", stmt)
	}
	if !stmt.Order[0].Desc || stmt.Order[1].Desc {
		t.Fatal("order directions wrong")
	}
	agg, ok := stmt.Items[1].Expr.(*AggExpr)
	if !ok || agg.Func != AggCount || !agg.Star {
		t.Fatalf("COUNT(*) = %v", stmt.Items[1].Expr)
	}
	if stmt.Items[1].Alias != "n" {
		t.Fatalf("alias = %q", stmt.Items[1].Alias)
	}
}

func TestParseBetween(t *testing.T) {
	stmt := mustParseQ(t, "SELECT * FROM t WHERE x BETWEEN 1 AND 10")
	b, ok := stmt.Where.(*BinaryExpr)
	if !ok || b.Op != OpAnd {
		t.Fatalf("BETWEEN desugar = %v", stmt.Where)
	}
	ge := b.L.(*BinaryExpr)
	le := b.R.(*BinaryExpr)
	if ge.Op != OpGe || le.Op != OpLe {
		t.Fatalf("BETWEEN bounds = %v / %v", ge.Op, le.Op)
	}
}

func TestParseWithinSubtree(t *testing.T) {
	stmt := mustParseQ(t, "SELECT * FROM tree_nodes WHERE WITHIN_SUBTREE(pre, 'FAM01')")
	se, ok := stmt.Where.(*SubtreeExpr)
	if !ok {
		t.Fatalf("where = %T", stmt.Where)
	}
	if se.Column.Name != "pre" || se.Node != "FAM01" {
		t.Fatalf("subtree expr = %+v", se)
	}
}

func TestParseExplain(t *testing.T) {
	stmt := mustParseQ(t, "EXPLAIN SELECT * FROM t")
	if !stmt.Explain {
		t.Fatal("EXPLAIN not parsed")
	}
}

func TestParseStringEscapes(t *testing.T) {
	stmt := mustParseQ(t, "SELECT * FROM t WHERE name = 'it''s'")
	b := stmt.Where.(*BinaryExpr)
	lit := b.R.(*Literal)
	if lit.Val.S != "it's" {
		t.Fatalf("escaped string = %q", lit.Val.S)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt := mustParseQ(t, "SELECT a + b * 2 FROM t")
	add := stmt.Items[0].Expr.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("top op = %v", add.Op)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != OpMul {
		t.Fatalf("right op = %v", mul.Op)
	}
}

func TestParseLike(t *testing.T) {
	stmt := mustParseQ(t, "SELECT * FROM t WHERE name LIKE 'kin%'")
	b := stmt.Where.(*BinaryExpr)
	if b.Op != OpLike {
		t.Fatalf("op = %v", b.Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t GROUP",
		"SELECT * FROM t JOIN u",
		"SELECT * FROM t trailing garbage here",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT COUNT( FROM t",
		"SELECT * FROM t WHERE WITHIN_SUBTREE(1, 'x')",
		"SELECT * FROM t WHERE WITHIN_SUBTREE(col, name)",
		"SELECT * FROM t WHERE a ! b",
		"SELECT * FROM t WHERE a = 1.2.3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestStmtStringRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT a, b FROM t WHERE a = 1",
		"SELECT p.a FROM t p JOIN u q ON p.a = q.b WHERE p.c > 2 LIMIT 3",
		"SELECT family, COUNT(*) FROM p GROUP BY family ORDER BY family DESC",
	}
	for _, src := range srcs {
		stmt := mustParseQ(t, src)
		rendered := stmt.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (%q): %v", src, rendered, err)
		}
		if stmt2.String() != rendered {
			t.Fatalf("unstable render: %q vs %q", rendered, stmt2.String())
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("1 2.5 1e3 1.5e-2")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokInt, tokFloat, tokFloat, tokFloat, tokEOF}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d = %v, want kind %d", i, toks[i], k)
		}
	}
	if _, err := lex("1e"); err == nil {
		t.Error("bad exponent accepted")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"kinase", "kin%", true},
		{"kinase", "%ase", true},
		{"kinase", "%nas%", true},
		{"kinase", "kinase", true},
		{"kinase", "k_nase", true},
		{"kinase", "k_ase", false},
		{"kinase", "ligase", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"ac", "a%c", true},
		{"abbbc", "a%b%c", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// parseShapes are the statements BenchmarkParse and TestParseAllocs
// parse: the six shapes of the repository benchmark's analytics
// workload.
func parseShapes() []benchShape { return benchShapes("clade_21", 8.612, "FAM01", 100) }

// TestParseAllocs bounds what parsing the longest analytics statement
// (integration3, a four-way join) allocates: the lexer sizes its token
// list once, looks keywords up without upper-casing a copy and takes an
// undoubled literal as a window of the source, so what is left is the
// parser's own tree.
func TestParseAllocs(t *testing.T) {
	q := parseShapes()[3].q
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Parse(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 33 {
		t.Fatalf("parsing integration3 made %.0f allocations, want ≤ 33", allocs)
	}
}

// BenchmarkParse parses the six analytics shapes, one a op in turn.
func BenchmarkParse(b *testing.B) {
	shapes := parseShapes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(shapes[i%len(shapes)].q); err != nil {
			b.Fatal(err)
		}
	}
}
