package phylo

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseNewick parses a Newick-format tree string such as
// "((A:0.1,B:0.2):0.05,C:0.3);". Labels may be bare words or quoted
// with single quotes; branch lengths are optional.
func ParseNewick(s string) (*Tree, error) {
	p := &newickParser{src: s}
	t := NewTree()
	root, err := p.parseSubtree(t, None)
	if err != nil {
		return nil, err
	}
	_ = root
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ';' {
		p.pos++
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("phylo: trailing input at offset %d: %q", p.pos, p.rest())
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

type newickParser struct {
	src string
	pos int
}

func (p *newickParser) rest() string {
	r := p.src[p.pos:]
	if len(r) > 20 {
		r = r[:20] + "..."
	}
	return r
}

func (p *newickParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *newickParser) parseSubtree(t *Tree, parent NodeID) (NodeID, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return None, fmt.Errorf("phylo: unexpected end of Newick input")
	}
	if p.src[p.pos] == '(' {
		p.pos++ // consume '('
		// Internal node: create it first so children can attach.
		id, err := t.AddNode("", parent, 0)
		if err != nil {
			return None, err
		}
		for {
			if _, err := p.parseSubtree(t, id); err != nil {
				return None, err
			}
			p.skipSpace()
			if p.pos >= len(p.src) {
				return None, fmt.Errorf("phylo: unclosed '(' in Newick input")
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return None, fmt.Errorf("phylo: expected ',' or ')' at offset %d: %q", p.pos, p.rest())
		}
		name, length, err := p.parseLabel()
		if err != nil {
			return None, err
		}
		t.names[id], t.length[id] = name, length
		return id, nil
	}
	// Leaf.
	name, length, err := p.parseLabel()
	if err != nil {
		return None, err
	}
	if name == "" {
		return None, fmt.Errorf("phylo: leaf with empty name at offset %d", p.pos)
	}
	return t.AddNode(name, parent, length)
}

// parseLabel reads an optional node label followed by an optional
// ":length" suffix.
func (p *newickParser) parseLabel() (string, float64, error) {
	p.skipSpace()
	var name string
	if p.pos < len(p.src) && p.src[p.pos] == '\'' {
		end := strings.IndexByte(p.src[p.pos+1:], '\'')
		if end < 0 {
			return "", 0, fmt.Errorf("phylo: unterminated quoted label at offset %d", p.pos)
		}
		name = p.src[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
	} else {
		start := p.pos
		for p.pos < len(p.src) && strings.IndexByte(newickDelims, p.src[p.pos]) < 0 {
			p.pos++
		}
		name = p.src[start:p.pos]
	}
	var length float64
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && (isNumByte(p.src[p.pos])) {
			p.pos++
		}
		v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return "", 0, fmt.Errorf("phylo: bad branch length at offset %d: %w", start, err)
		}
		length = v
	}
	return name, length, nil
}

// newickDelims are the bytes that end a bare label; a name holding one
// is written quoted.
const newickDelims = "():,;' \t\n\r"

func isNumByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E'
}

// Newick serializes the tree in Newick format with branch lengths (the
// root's only when it has one). Names containing Newick metacharacters
// are single-quoted.
func (t *Tree) Newick() string {
	if t.root == None {
		return ";"
	}
	var b strings.Builder
	t.writeNewick(&b, t.root)
	b.WriteByte(';')
	return b.String()
}

func (t *Tree) writeNewick(b *strings.Builder, id NodeID) {
	n := t.Node(id)
	if !n.IsLeaf() {
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			t.writeNewick(b, c)
		}
		b.WriteByte(')')
	}
	if n.Name != "" {
		if strings.ContainsAny(n.Name, newickDelims) {
			b.WriteByte('\'')
			b.WriteString(n.Name)
			b.WriteByte('\'')
		} else {
			b.WriteString(n.Name)
		}
	}
	if id != t.root || n.Length != 0 {
		fmt.Fprintf(b, ":%g", n.Length)
	}
}
