// Package query implements DTQL, the DrugTree query language: a
// SQL-like language over the integrated store with tree-aware
// extensions (WITHIN_SUBTREE, tree virtual columns), a rule- and
// cost-based optimizer, and a batch-at-a-time executor.
//
// The optimizer is the paper's subject: it applies "standard"
// techniques (predicate pushdown, projection pruning, index selection,
// cost-based join ordering) plus the tree-specific rewrite that turns
// subtree-membership predicates into preorder-interval range scans.
package query

import (
	"fmt"
	"strconv"
	"strings"
)

// tokenKind enumerates lexical token types.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // ( ) , . *
	tokOp     // = != < <= > >= + - / %
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords recognized by the parser (upper-cased).
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "JOIN": true, "ON": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "ASC": true, "DESC": true, "AS": true,
	"TRUE": true, "FALSE": true, "NULL": true, "BETWEEN": true,
	"EXPLAIN": true, "ANALYZE": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "WITHIN_SUBTREE": true, "LIKE": true,
	"HAVING": true, "IN": true, "DISTINCT": true, "ANCESTOR_OF": true,
	"TANIMOTO": true,
}

// lex tokenizes a DTQL string.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9' || (c == '.' && i+1 < len(src) && isDigit(src[i+1])):
			start := i
			isFloat := false
			for i < len(src) && (isDigit(src[i]) || src[i] == '.') {
				if src[i] == '.' {
					if isFloat {
						return nil, fmt.Errorf("query: malformed number at offset %d", start)
					}
					isFloat = true
				}
				i++
			}
			// Exponent.
			if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
				isFloat = true
				i++
				if i < len(src) && (src[i] == '+' || src[i] == '-') {
					i++
				}
				if i >= len(src) || !isDigit(src[i]) {
					return nil, fmt.Errorf("query: malformed exponent at offset %d", start)
				}
				for i < len(src) && isDigit(src[i]) {
					i++
				}
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, src[start:i], start})
		case isIdentStart(c):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			text := src[start:i]
			if keywords[strings.ToUpper(text)] {
				toks = append(toks, token{tokKeyword, strings.ToUpper(text), start})
			} else {
				toks = append(toks, token{tokIdent, text, start})
			}
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("query: unterminated string at offset %d", start)
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c == '"':
			// The double-quoted form SelectStmt.String renders a string
			// literal in (strconv.Quote), so a rendered statement parses.
			quoted, err := strconv.QuotedPrefix(src[i:])
			if err != nil {
				return nil, fmt.Errorf("query: malformed quoted string at offset %d", i)
			}
			text, _ := strconv.Unquote(quoted)
			toks = append(toks, token{tokString, text, i})
			i += len(quoted)
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '*':
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("query: unexpected '!' at offset %d", i)
			}
		case c == '<':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokOp, "<=", i})
				i += 2
			} else if i+1 < len(src) && src[i+1] == '>' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, "<", i})
				i++
			}
		case c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokOp, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, ">", i})
				i++
			}
		case c == '+' || c == '-' || c == '/' || c == '%':
			toks = append(toks, token{tokOp, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
