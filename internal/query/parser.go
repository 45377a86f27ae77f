package query

import (
	"fmt"
	"strconv"

	"drugtree/internal/store"
)

// Parse parses a DTQL statement.
func Parse(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("query: unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("query: expected %s, got %s", kw, p.peek())
	}
	return nil
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return fmt.Errorf("query: expected %q, got %s", s, p.peek())
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	stmt := &SelectStmt{Limit: -1}
	if p.acceptKeyword("EXPLAIN") {
		stmt.Explain = true
		if p.acceptKeyword("ANALYZE") {
			stmt.Analyze = true
		}
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	// Joins.
	for p.acceptKeyword("JOIN") {
		tref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: tref, On: on})
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.Order = append(stmt.Order, key)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokInt {
			return nil, fmt.Errorf("query: LIMIT expects an integer, got %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("query: invalid LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.next()
		if t.kind != tokIdent {
			return SelectItem{}, fmt.Errorf("query: expected alias after AS, got %s", t)
		}
		item.Alias = t.text
	} else if p.peek().kind == tokIdent {
		// Bare alias: SELECT affinity a FROM ...
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return TableRef{}, fmt.Errorf("query: expected table name, got %s", t)
	}
	ref := TableRef{Name: t.text}
	if p.acceptKeyword("AS") {
		a := p.next()
		if a.kind != tokIdent {
			return TableRef{}, fmt.Errorf("query: expected alias after AS, got %s", a)
		}
		ref.Alias = a.text
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression grammar (precedence climbing):
//
//	expr     := orExpr
//	orExpr   := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := NOT notExpr | cmpExpr
//	cmpExpr  := addExpr ((= != < <= > >= LIKE) addExpr
//	            | BETWEEN addExpr AND addExpr)?
//	addExpr  := mulExpr ((+ -) mulExpr)*
//	mulExpr  := unary ((* / %) unary)*
//	unary    := - unary | primary
//	primary  := literal | columnRef | aggCall | WITHIN_SUBTREE(...)
//	            | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokOp {
		if op, ok := cmpOps[p.peek().text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	if p.acceptKeyword("LIKE") {
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: OpLike, L: l, R: r}, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		// x BETWEEN a AND b  ≡  x >= a AND x <= b.
		return &BinaryExpr{
			Op: OpAnd,
			L:  &BinaryExpr{Op: OpGe, L: l, R: lo},
			R:  &BinaryExpr{Op: OpLe, L: l, R: hi},
		}, nil
	}
	// x IN (a, b, c) ≡ x=a OR x=b OR x=c; NOT IN negates the whole.
	negated := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "IN" {
		p.pos += 2
		negated = true
	} else if p.acceptKeyword("IN") {
		// fallthrough to the list below
	} else {
		return l, nil
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	// IN (SELECT ...) is a subquery set; otherwise a literal list.
	if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		var out Expr = &InSubqueryExpr{Needle: l, Stmt: sub}
		if negated {
			out = &NotExpr{E: out}
		}
		return out, nil
	}
	var list Expr
	for {
		item, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		eq := Expr(&BinaryExpr{Op: OpEq, L: l, R: item})
		if list == nil {
			list = eq
		} else {
			list = &BinaryExpr{Op: OpOr, L: list, R: eq}
		}
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if negated {
		return &NotExpr{E: list}, nil
	}
	return list, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "+" || p.peek().text == "-") {
		op := OpAdd
		if p.next().text == "-" {
			op = OpSub
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		if p.peek().kind == tokSymbol && p.peek().text == "*" {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpMul, L: l, R: r}
			continue
		}
		if p.peek().kind == tokOp && p.peek().text == "/" {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpDiv, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().kind == tokOp && p.peek().text == "-" {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NegExpr{E: e}, nil
	}
	return p.parsePrimary()
}

var aggFuncs = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt, tokFloat:
		p.next()
		// Digits too wide for an INT are a FLOAT: that is how a FLOAT
		// literal of integral value renders (no fraction).
		if n, err := strconv.ParseInt(t.text, 10, 64); err == nil && t.kind == tokInt {
			return &Literal{Val: store.IntValue(n)}, nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("query: bad number %q", t.text)
		}
		return &Literal{Val: store.FloatValue(f)}, nil
	case tokString:
		p.next()
		return &Literal{Val: store.StringValue(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.next()
			return &Literal{Val: store.BoolValue(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: store.BoolValue(false)}, nil
		case "NULL":
			p.next()
			return &Literal{Val: store.NullValue()}, nil
		case "WITHIN_SUBTREE":
			return p.parseTreeFunc(false)
		case "ANCESTOR_OF":
			return p.parseTreeFunc(true)
		case "TANIMOTO":
			return p.parseTanimoto()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseAgg()
		}
		return nil, fmt.Errorf("query: unexpected keyword %s in expression", t)
	case tokIdent:
		p.next()
		ref := &ColumnRef{Name: t.text}
		if p.acceptSymbol(".") {
			col := p.next()
			if col.kind != tokIdent {
				return nil, fmt.Errorf("query: expected column after %q., got %s", t.text, col)
			}
			ref.Qualifier = t.text
			ref.Name = col.text
		}
		return ref, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			// A parenthesized SELECT is a scalar subquery.
			if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Stmt: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("query: unexpected %s in expression", t)
}

func (p *parser) parseAgg() (Expr, error) {
	fn := aggFuncs[p.next().text]
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if fn == AggCount && p.acceptSymbol("*") {
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &AggExpr{Func: AggCount, Star: true}, nil
	}
	distinct := false
	if p.acceptKeyword("DISTINCT") {
		if fn != AggCount {
			return nil, fmt.Errorf("query: DISTINCT is only supported in COUNT")
		}
		distinct = true
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &AggExpr{Func: fn, Arg: arg, Distinct: distinct}, nil
}

// parseTanimoto parses TANIMOTO(col, 'SMILES').
func (p *parser) parseTanimoto() (Expr, error) {
	p.next() // TANIMOTO
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	colExpr, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	col, ok := colExpr.(*ColumnRef)
	if !ok {
		return nil, fmt.Errorf("query: TANIMOTO first argument must be a column, got %s", colExpr)
	}
	if err := p.expectSymbol(","); err != nil {
		return nil, err
	}
	smilesTok := p.next()
	if smilesTok.kind != tokString {
		return nil, fmt.Errorf("query: TANIMOTO second argument must be a string literal, got %s", smilesTok)
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &TanimotoExpr{Column: col, SMILES: smilesTok.text}, nil
}

// parseTreeFunc parses WITHIN_SUBTREE(col, 'name') or, when ancestor
// is true, ANCESTOR_OF(col, 'name').
func (p *parser) parseTreeFunc(ancestor bool) (Expr, error) {
	fname := p.next().text
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	colExpr, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	col, ok := colExpr.(*ColumnRef)
	if !ok {
		return nil, fmt.Errorf("query: %s first argument must be a column, got %s", fname, colExpr)
	}
	if err := p.expectSymbol(","); err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.kind != tokString {
		return nil, fmt.Errorf("query: %s second argument must be a string literal, got %s", fname, nameTok)
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if ancestor {
		return &AncestorExpr{Column: col, Node: nameTok.text}, nil
	}
	return &SubtreeExpr{Column: col, Node: nameTok.text}, nil
}
