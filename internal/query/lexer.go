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

// keywords maps each keyword the parser recognizes, upper-cased, to
// itself: a keyword token's text is the map's own string.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range strings.Fields(`SELECT FROM WHERE AND OR NOT JOIN ON GROUP BY ORDER LIMIT ASC DESC AS TRUE FALSE
		NULL BETWEEN EXPLAIN ANALYZE COUNT SUM AVG MIN MAX WITHIN_SUBTREE LIKE HAVING IN DISTINCT ANCESTOR_OF TANIMOTO`) {
		m[k] = k
	}
	return m
}()

// keyword returns the keyword an identifier spells in any case, without
// allocating: it is upper-cased into a buffer longer than every keyword
// (clearing bit 0x20 upper-cases a letter and turns a digit into a
// control byte no keyword holds), and a map index by string(bytes)
// copies nothing.
func keyword(ident string) (string, bool) {
	var buf [16]byte
	if len(ident) > len(buf) {
		return "", false
	}
	for i := range len(ident) {
		buf[i] = ident[i] &^ 0x20
	}
	kw, ok := keywords[string(buf[:len(ident)])]
	return kw, ok
}

// lex tokenizes a DTQL string.
func lex(src string) ([]token, error) {
	// A token takes at least two bytes of source but for a one-byte
	// symbol next to another, so this rarely grows.
	toks := make([]token, 0, len(src)/4+2)
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
			if kw, ok := keyword(text); ok {
				toks = append(toks, token{tokKeyword, kw, start})
			} else {
				toks = append(toks, token{tokIdent, text, start})
			}
		case c == '\'':
			text, n, ok := singleQuoted(src[i:])
			if !ok {
				return nil, fmt.Errorf("query: unterminated string at offset %d", i)
			}
			toks = append(toks, token{tokString, text, i})
			i += n
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
			toks = append(toks, token{tokSymbol, src[i : i+1], i})
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
			toks = append(toks, token{tokOp, src[i : i+1], i})
			i++
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

// singleQuoted reads the '…' literal s starts with: its text, a window
// of s unless a doubled quote must be undone, and its length in s.
func singleQuoted(s string) (text string, n int, ok bool) {
	for end := 1; ; end += 2 {
		j := strings.IndexByte(s[end:], '\'')
		if j < 0 {
			return "", 0, false
		}
		if end += j; end+1 == len(s) || s[end+1] != '\'' {
			return strings.ReplaceAll(s[1:end], "''", "'"), end + 1, true
		}
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
