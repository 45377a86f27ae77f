package mobile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// A QUERY names a template slot (DESIGN.md §12). The first use of a
// template carries it, its segments interleaved with the statement's
// literals, into a slot the client picks; later uses send the slot and
// the literals, and the server splices the exact text back. Slot 0
// keeps nothing and carries the whole text: it is all the stateless
// WriteMsg / ReadMsg pair writes or reads.
const (
	maxStmtSlots    = 63   // slots 1 to 63, so a head fits one byte
	maxStmtTemplate = 1024 // the stmtSize a slot keeps; a longer statement goes in slot 0
)

var (
	errStmtSlot     = errors.New("statement slot out of range")
	errStmtUnknown  = errors.New("statement slot not defined")
	errStmtTemplate = fmt.Errorf("statement template over %d bytes", maxStmtTemplate)
)

// stmtSize is what keeping text's template costs: the text and its
// cuts.
func stmtSize(text string, cuts []int) int { return len(text) + 8*len(cuts) }

// splitStmt appends to dst the offsets that cut s into template
// segments and literals: 0, then each literal's start and end, then len(s), so
// segment i is s[cuts[2i]:cuts[2i+1]] and a literal lies between two
// segments. Literals are quoted strings, in which a doubled quote is
// one quote, and numbers (digits, then optionally '.' and digits) that
// do not continue a word; an unterminated quote and all after it are
// template text. Any cut splices back to the text, so this one needs no
// DTQL lexer; it makes statements that differ only in their constants
// share a template.
func splitStmt(dst []int, s string) []int {
	cuts := append(dst, 0)
	for i := 0; i < len(s); i++ {
		j := i + 1
		switch {
		case s[i] == '\'':
			for ; j < len(s) && (s[j] != '\'' || j+1 < len(s) && s[j+1] == '\''); j++ {
				if s[j] == '\'' {
					j++
				}
			}
			if j == len(s) {
				return append(cuts, len(s))
			}
			j++
		case isDigit(s[i]) && (i == 0 || !isWordByte(s[i-1])):
			for j < len(s) && isDigit(s[j]) {
				j++
			}
			if j+1 < len(s) && s[j] == '.' && isDigit(s[j+1]) {
				for j++; j < len(s) && isDigit(s[j]); j++ {
				}
			}
		default:
			continue
		}
		cuts = append(cuts, i, j)
		i = j - 1
	}
	return append(cuts, len(s))
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isWordByte reports whether c may continue an identifier: a letter, a
// digit, '_' or a byte of a multi-byte UTF-8 character.
func isWordByte(c byte) bool {
	return isDigit(c) || c == '_' || c >= 0x80 || 'a' <= c|0x20 && c|0x20 <= 'z'
}

// stmtWriter is a client's record of the templates its server keeps,
// by template key. Once every slot is taken it starts over from slot 1.
type stmtWriter struct {
	slots map[string]int
	key   []byte
	cuts  []int
}

// appendQuery appends a QUERY's fields: with w, a template slot and the
// literals, or the template too on its first use; without, slot 0.
func appendQuery(b []byte, w *stmtWriter, text string) []byte {
	if w != nil {
		w.cuts = splitStmt(w.cuts[:0], text)
	}
	if w == nil || stmtSize(text, w.cuts) > maxStmtTemplate {
		return appendStr(binary.AppendUvarint(b, 1), text)
	}
	cuts := w.cuts
	w.key = w.key[:0]
	for i := 0; i < len(cuts); i += 2 {
		w.key = appendStr(w.key, text[cuts[i]:cuts[i+1]])
	}
	slot, kept := w.slots[string(w.key)]
	if kept {
		b = binary.AppendUvarint(b, uint64(slot<<1))
	} else {
		if len(w.slots) == maxStmtSlots || w.slots == nil {
			w.slots = make(map[string]int, maxStmtSlots)
		}
		slot = len(w.slots) + 1
		w.slots[string(w.key)] = slot
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(slot<<1|1)), uint64(len(cuts)/2))
		b = appendStr(b, text[:cuts[1]])
	}
	for i := 1; i+1 < len(cuts); i += 2 {
		if b = appendStr(b, text[cuts[i]:cuts[i+1]]); !kept {
			b = appendStr(b, text[cuts[i+1]:cuts[i+2]])
		}
	}
	return b
}

// stmtTemplate is a kept template: the text of its first use, and its
// cuts.
type stmtTemplate struct {
	text string
	cuts []int
}

// stmtTable is a server session's template slots.
type stmtTable [maxStmtSlots + 1]*stmtTemplate

// query decodes a QUERY's fields into its statement, keeping a carried
// template in its slot once the whole frame has decoded. Without a
// table only slot 0 decodes.
func (d *decoder) query() *Query {
	head := d.uvarint()
	slot, carried := min(head>>1, maxStmtSlots+1), head&1 == 1
	switch {
	case head == 1:
		return &Query{DTQL: d.str()}
	case d.err != nil:
		return nil
	case slot == 0 || slot > maxStmtSlots || d.stmts == nil:
		d.fail(errStmtSlot)
		return nil
	case !carried && d.stmts[slot] == nil:
		d.fail(errStmtUnknown)
		return nil
	}
	kept, segs := d.stmts[slot], 0
	var text strings.Builder
	var cuts []int // a carried template's, to keep
	if carried {
		segs = d.count(1)
		cuts = append(make([]int, 0, 2*segs), 0)
		text.Grow(len(d.p))
	} else {
		segs = len(kept.cuts) / 2
		text.Grow(len(d.p) + len(kept.text))
	}
	for i := 0; i < segs && d.err == nil; i++ {
		if i > 0 {
			lit := d.take(d.uvarint())
			if carried {
				cuts = append(cuts, text.Len(), text.Len()+len(lit))
			}
			text.Write(lit)
		}
		if carried {
			text.Write(d.take(d.uvarint()))
		} else {
			text.WriteString(kept.text[kept.cuts[2*i]:kept.cuts[2*i+1]])
		}
	}
	q := &Query{DTQL: text.String()}
	if d.err != nil {
		return nil
	}
	if carried {
		if cuts = append(cuts, len(q.DTQL)); stmtSize(q.DTQL, cuts) > maxStmtTemplate {
			d.fail(errStmtTemplate)
			return nil
		}
		if len(d.p) == 0 {
			d.stmts[slot] = &stmtTemplate{q.DTQL, cuts}
		}
	}
	return q
}
