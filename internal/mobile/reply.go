package mobile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"drugtree/internal/store"
)

// A QUERY_RESULT is columnar (DESIGN.md §12). Decoding builds a 40-byte
// Value a cell, so a reply of mostly NULL cells could claim far more
// than its bytes: encoder and decoder count what decoding allocates
// alike, and zero bytes pad a payload shorter than that count over
// replyAllocRatio.
const (
	nullsFlag       = 0x80
	replyAllocRatio = 48
)

var (
	errSparse       = errors.New("result claims more cells than its payload holds")
	errNotCanonical = errors.New("result not in the form its encoder writes")
)

// Decoding allocates a 24-byte header a row and a 40-byte Value a cell,
// a name and its string header, and per dictionary its strings, their
// headers and a use mark an entry.
func rowsCost(n, w int) int           { return n * (24 + 40*w) }
func nameCost(s string) int           { return 16 + len(s) }
func dictCost(entries, bytes int) int { return 17*entries + bytes }

// dictEntry is a distinct STRING cell and its first-appearance number.
type dictEntry struct {
	s     string
	first uint32
}

// appendReply appends a QUERY_RESULT payload. A result of Rows alone,
// or one with a generic column, is transposed into columns of its
// cells' kinds, so every result takes one path; a column whose cells
// are of two kinds is an error.
func (e *encoder) appendReply(b []byte, m *QueryResult) ([]byte, error) {
	cb := m.Batch
	if cb != nil && len(cb.Cols) != len(m.Columns) {
		return b, fmt.Errorf("mobile: result has %d columns and %d names", len(cb.Cols), len(m.Columns))
	}
	if cb != nil && slices.ContainsFunc(cb.Cols, func(c store.Col) bool { return c.Kind == store.KindNull }) {
		m, cb = &QueryResult{Columns: m.Columns, Rows: store.RowsFromColBatch(cb)}, nil
	}
	if cb == nil {
		kinds := make([]store.Kind, len(m.Columns))
		for i, r := range m.Rows {
			if len(r) != len(m.Columns) {
				return b, fmt.Errorf("mobile: result row %d has %d cells, want %d", i, len(r), len(m.Columns))
			}
			for j, v := range r {
				if kinds[j] == store.KindNull {
					kinds[j] = v.K
				} else if v.K != store.KindNull && v.K != kinds[j] {
					return b, fmt.Errorf("mobile: result column %q mixes %v and %v cells", m.Columns[j], kinds[j], v.K)
				}
			}
		}
		cb = store.ColBatchFromRows(kinds, m.Rows)
	}
	start, cost := len(b), rowsCost(cb.Rows, len(m.Columns))
	b = binary.AppendUvarint(append(b, byte(MsgQueryResult)), uint64(len(m.Columns)))
	for _, c := range m.Columns {
		b = appendStr(b, c)
		cost += nameCost(c)
	}
	b = binary.AppendUvarint(b, uint64(cb.Rows))
	for i := range cb.Cols {
		b = e.appendColumn(b, &cb.Cols[i], cb.Rows, &cost)
	}
	if pad := (cost+replyAllocRatio-1)/replyAllocRatio - (len(b) - start); pad > 0 {
		b = appendZeros(b, pad)
	}
	return b, nil
}

// appendColumn appends the first n cells of c, a typed column or one of
// NULLs alone, and adds its dictionary's decoding cost to cost.
func (e *encoder) appendColumn(b []byte, c *store.Col, n int, cost *int) []byte {
	at, nulls := len(b), 0
	b = appendZeros(b, 1+(n+7)/8) // the kind, then room for a bitmap
	for i, null := range c.Null[:n] {
		if null {
			nulls++
			b[at+1+i/8] |= 1 << (i % 8)
		}
	}
	switch {
	case nulls == n:
		return b[:at+1]
	case nulls == 0:
		b, b[at] = b[:at+1], byte(c.Kind)
	default:
		b[at] = byte(c.Kind) | nullsFlag
	}
	if c.Kind == store.KindString {
		return e.appendStrings(b, c, n, cost)
	}
	for i, null := range c.Null[:n] {
		switch {
		case null:
		case c.Kind == store.KindFloat:
			b = appendF64(b, c.Float[i])
		case c.Kind == store.KindInt:
			b = binary.AppendVarint(b, c.Int[i])
		default:
			b = append(b, byte(c.Int[i]))
		}
	}
	return b
}

// appendStrings appends a typed STRING column's dictionary and row
// codes. Distinct cells are numbered as they first appear, then sorted,
// so the sort compares each distinct string, not each row.
func (e *encoder) appendStrings(b []byte, c *store.Col, n int, cost *int) []byte {
	if e.seen == nil {
		e.seen = make(map[string]uint32)
	}
	e.dict, e.codes = e.dict[:0], sized(e.codes, n)
	for i, null := range c.Null[:n] {
		if null {
			continue
		}
		first, ok := e.seen[c.Str[i]]
		if !ok {
			first = uint32(len(e.dict))
			e.seen[c.Str[i]] = first
			e.dict = append(e.dict, dictEntry{c.Str[i], first})
		}
		e.codes[i] = first
	}
	slices.SortFunc(e.dict, func(x, y dictEntry) int { return strings.Compare(x.s, y.s) })
	e.rank = sized(e.rank, len(e.dict))
	b = binary.AppendUvarint(b, uint64(len(e.dict)))
	bytes, prev := 0, ""
	for k, x := range e.dict {
		shared := 0
		for shared < min(len(x.s), len(prev)) && x.s[shared] == prev[shared] {
			shared++
		}
		b = appendStr(binary.AppendUvarint(b, uint64(shared)), x.s[shared:])
		e.rank[x.first], bytes, prev = uint32(k), bytes+len(x.s), x.s
	}
	*cost += dictCost(len(e.dict), bytes)
	for i, null := range c.Null[:n] {
		if !null {
			b = binary.AppendUvarint(b, uint64(e.rank[e.codes[i]]))
		}
	}
	// Keep no cell of the result alive, and no map a large column grew
	// (a map never shrinks; maxInterned entries stay near maxRetained).
	clear(e.dict)
	if len(e.seen) > maxInterned {
		e.seen = nil
	}
	clear(e.seen)
	e.dict, e.codes, e.rank = retained(e.dict), retained(e.codes), retained(e.rank)
	return b
}

// appendZeros appends k zero bytes to b, allocating only when b is too
// short (append(b, make(...)...) allocates under the race detector).
func appendZeros(b []byte, k int) []byte {
	b = slices.Grow(b, k)[:len(b)+k]
	clear(b[len(b)-k:])
	return b
}

// queryReply is a decoded QueryResult with room for the names of a
// narrow result, so the message and its column names are one
// allocation.
type queryReply struct {
	QueryResult
	names [8]string
}

// queryResult decodes a result into rows over one cell slab, the cells
// of a STRING column sharing one string per dictionary entry. It takes
// only what appendReply writes, and charges every allocation before it
// makes it.
func (d *decoder) queryResult() *QueryResult {
	r := &queryReply{}
	q := &r.QueryResult
	w := d.count(2)
	if w <= len(r.names) {
		q.Columns = r.names[:w:w]
	} else {
		q.Columns = make([]string, w)
	}
	for i := range q.Columns {
		q.Columns[i] = d.name()
		d.charge(nameCost(q.Columns[i]))
	}
	if n := d.uvarint(); n > uint64(2*d.size) {
		d.fail(errSparse)
	} else if d.charge(rowsCost(int(n), w)); d.err == nil {
		slab := make([]store.Value, int(n)*w)
		if n > 0 {
			q.Rows = make([]store.Row, n)
			for i := range q.Rows {
				q.Rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
			}
		}
		for j := 0; j < w && d.err == nil; j++ {
			d.column(slab, j, w, int(n))
		}
	}
	if pad := (d.cost+replyAllocRatio-1)/replyAllocRatio - (d.size - len(d.p)); pad > 0 && d.err == nil {
		if slices.ContainsFunc(d.take(uint64(pad)), func(c byte) bool { return c != 0 }) {
			d.fail(errNotCanonical)
		}
	}
	return q
}

// column decodes column j of n rows, w cells wide, into slab.
func (d *decoder) column(slab []store.Value, j, w, n int) {
	h := d.byte()
	kind := store.Kind(h &^ nullsFlag)
	var nulls []byte
	switch {
	case kind > store.KindBool:
		d.fail(fmt.Errorf("unknown column kind %d", kind))
	case kind == store.KindNull || n == 0:
		if h != 0 {
			d.fail(errNotCanonical) // a bitmap, or a typed column of no rows
		}
		return
	case h&nullsFlag != 0:
		nulls = d.take(uint64((n + 7) / 8))
		set := 0
		for _, x := range nulls {
			set += bits.OnesCount8(x)
		}
		if len(nulls) > 0 && (set == 0 || set == n || nulls[len(nulls)-1]>>(uint(n-1)%8+1) != 0) {
			d.fail(errNotCanonical)
		}
	}
	var dict []string
	var used []bool
	if kind == store.KindString {
		dict, used = d.dictionary()
	}
	for i := 0; i < n && d.err == nil; i++ {
		if nulls != nil && nulls[i/8]>>(i%8)&1 == 1 {
			continue
		}
		switch v := &slab[i*w+j]; kind {
		case store.KindInt:
			*v = store.IntValue(d.varint())
		case store.KindFloat:
			*v = store.FloatValue(d.f64())
		case store.KindBool:
			*v = store.BoolValue(d.flag())
		case store.KindString:
			if c := d.uvarint(); c < uint64(len(dict)) {
				*v, used[c] = store.StringValue(dict[c]), true
			} else {
				d.fail(fmt.Errorf("dictionary code %d of %d entries", c, len(dict)))
			}
		}
	}
	if slices.Contains(used, false) {
		d.fail(errNotCanonical)
	}
}

// dictionary decodes a STRING column's dictionary into one backing
// string, which a first pass sizes and charges. Entries must ascend
// strictly, each sharing all it can with the one before.
func (d *decoder) dictionary() ([]string, []bool) {
	entries, from := d.count(2), d.p
	total, prev := 0, 0
	for i := 0; i < entries && d.err == nil; i++ {
		if shared := d.uvarint(); shared <= uint64(prev) {
			prev = int(shared) + len(d.take(d.uvarint()))
			total += prev
		} else {
			d.fail(errNotCanonical)
		}
	}
	if d.charge(dictCost(entries, total)); d.err != nil {
		return nil, nil
	}
	d.p = from
	var sb strings.Builder
	sb.Grow(total)
	dict := make([]string, entries)
	for i := range dict {
		shared, rest, start := int(d.uvarint()), d.take(d.uvarint()), sb.Len()
		if i > 0 {
			if p := dict[i-1]; len(rest) == 0 || shared < len(p) && rest[0] <= p[shared] {
				d.fail(errNotCanonical)
				return nil, nil
			}
			sb.WriteString(dict[i-1][:shared])
		}
		sb.Write(rest)
		dict[i] = sb.String()[start:]
	}
	return dict, make([]bool, entries)
}

// charge counts n bytes decoding will allocate, failing once the count
// passes replyAllocRatio times the payload.
func (d *decoder) charge(n int) {
	if d.cost += n; d.cost > replyAllocRatio*d.size {
		d.fail(errSparse)
	}
}
