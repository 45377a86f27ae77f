package store

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Dict is a DB's string dictionary: a STRING column with a hash index (a
// coded column) stores an int32 code into it a slot, so equal names have
// equal codes in every table of the DB. It is append-only, so it holds
// every distinct string ever committed to a coded column or ranked, and
// a code, once handed out, names its string for the life of the process.
// Codes live in this process only: the WAL and checkpoints hold strings.
// Reads deliver a coded column's cells as codes (a KindCode column, see
// Selection.FillCol); Names, Value and Decode decode them.
//
// slots finds a string's code: an open-addressed table of codes by their
// strings' hashes (linear probing, at most 7/8 full), 4 bytes a string
// beside its header in names. names is read without the lock, as column
// vectors are: a reader decodes only codes it read from a slot, each
// written to names before it was handed out, and a full array is
// replaced (grown by an eighth), never rewritten.
type Dict struct {
	mu    sync.RWMutex
	slots []int32                  // 0 marks an empty position; else a code
	shift uint8                    // 64 - log2(len(slots))
	n     int                      // codes handed out, nullCode included
	names atomic.Pointer[[]string] // by code, at the array's full length; entries past n are unset
	rank  *ranking                 // the last published ranking, or nil
}

// nullCode is the code a coded column stores for a NULL cell.
const nullCode = 0

var dictSeed = maphash.MakeSeed()

func newDict() *Dict {
	d := &Dict{n: 1}
	names := make([]string, 16)
	d.names.Store(&names)
	d.resize(16)
	return d
}

// find returns the position of s's code in slots, or of the empty one
// ending its probe run (code 0).
func (d *Dict) find(s string, names []string) (pos int, c int32) {
	mask := len(d.slots) - 1
	for i := int(maphash.String(dictSeed, s) >> d.shift); ; i = (i + 1) & mask {
		if c = d.slots[i]; c == 0 || names[c] == s {
			return i, c
		}
	}
}

// resize refiles every code into size positions (a power of two).
func (d *Dict) resize(size int) {
	d.slots, d.shift = make([]int32, size), uint8(64-bits.TrailingZeros(uint(size)))
	names := d.Names()
	for c := 1; c < d.n; c++ {
		pos, _ := d.find(names[c], names)
		d.slots[pos] = int32(c)
	}
}

// Names returns the dictionary's strings by code: every code handed out
// before the call has its entry. The slice is shared, read-only.
func (d *Dict) Names() []string { return *d.names.Load() }

// code returns the code of s, ok false when s has none.
func (d *Dict) code(s string) (c int32, ok bool) {
	d.mu.RLock()
	_, c = d.find(s, d.Names())
	d.mu.RUnlock()
	return c, c != 0
}

// intern returns the code of s, handing out the next one when s is new.
func (d *Dict) intern(s string) int32 {
	if c, ok := d.code(s); ok {
		return c
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.internLocked(s)
}

func (d *Dict) internLocked(s string) int32 {
	names := d.Names()
	pos, c := d.find(s, names)
	if c != 0 {
		return c
	}
	if d.n == len(names) {
		grown := make([]string, d.n+d.n/8+16)
		copy(grown, names)
		names = grown
		d.names.Store(&names)
	}
	c = int32(d.n)
	names[c] = s
	d.slots[pos] = c
	d.n++
	if d.n*8 > len(d.slots)*7 {
		d.resize(2 * len(d.slots))
	}
	return c
}

// coder returns the Compute of a coded column whose code array is vec:
// it writes each slot's code into dst.Int (nullCode for a NULL cell).
func coder(vec []int32) func(dst *Col, slots []int32) {
	return func(dst *Col, slots []int32) {
		for k, s := range slots {
			dst.Int[k] = int64(vec[s])
		}
	}
}

// Code returns the code of s, ok false when the dictionary lacks s: then
// no coded cell equals s.
func (d *Dict) Code(s string) (code int64, ok bool) {
	c, ok := d.code(s)
	return int64(c), ok
}

// Value returns cell i of c as a Value, a coded cell decoded to its
// string: Col.Value for a column of any other kind. d may be nil when c
// is not coded.
func (d *Dict) Value(c *Col, i int) Value {
	if c.Kind != KindCode || c.Null[i] {
		return c.Value(i)
	}
	return Value{K: KindString, S: d.Names()[c.Int[i]]}
}

// Decode writes coded column c's cells at rows into dst as a STRING
// column of c's length, each decoded to the dictionary's string (cells
// off rows are NULL), reusing dst's vectors.
func (d *Dict) Decode(dst, c *Col, rows []int) {
	n := c.Len()
	dst.Kind, dst.Null, dst.Str = KindString, resized(dst.Null, n), resized(dst.Str, n)
	names := d.Names()
	for i := range dst.Null {
		dst.Null[i] = true
	}
	for _, i := range rows {
		dst.Null[i], dst.Str[i] = c.Null[i], names[c.Int[i]]
	}
}

// Encode writes column c's cells at rows into dst as a coded column of
// c's length, under one read lock: a STRING cell as its code, and a cell
// of another kind or a string the dictionary lacks as −1, which equals
// no coded cell (NULL cells, and cells off rows, are NULL), reusing
// dst's vectors.
func (d *Dict) Encode(dst, c *Col, rows []int) {
	n := c.Len()
	dst.Kind, dst.Null, dst.Int = KindCode, resized(dst.Null, n), resized(dst.Int, n)
	for i := range dst.Null {
		dst.Null[i] = true
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := d.Names()
	for _, i := range rows {
		if dst.Null[i] = c.Null[i]; dst.Null[i] {
			continue
		}
		dst.Int[i] = -1
		if v := c.Value(i); v.K == KindString {
			if _, code := d.find(v.S, names); code != nullCode {
				dst.Int[i] = int64(code)
			}
		}
	}
}

// ranking is a published order over the dictionary's names: rank r
// names codeOf[r] (nullCode for none), and code c has rank rankOf[c]
// (−1 for none; a code past rankOf's end was handed out later).
type ranking struct {
	source any
	codeOf []int32
	rankOf []int32
}

// PublishRanks ranks strings for accesses from source (comparable; see
// Access.Rank): rank r in [0, n) names name(r), "" naming none, and a
// string two ranks name belongs to the lower. Every named string is
// coded now, so a string coded later has no rank. A ranking replaces the
// DB's last one unless that came from the same source, which is kept. It
// lives in this process only, as codes do.
func (db *DB) PublishRanks(source any, n int, name func(r int) string) {
	db.dict.publish(source, n, name)
}

// publish is PublishRanks on d.
func (d *Dict) publish(source any, n int, name func(r int) string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rank != nil && d.rank.source == source {
		return
	}
	rk := &ranking{source: source, codeOf: make([]int32, n)}
	for r := range n {
		if s := name(r); s != "" {
			rk.codeOf[r] = d.internLocked(s)
		}
	}
	rk.rankOf = make([]int32, d.n)
	for c := range rk.rankOf {
		rk.rankOf[c] = -1
	}
	for r, c := range rk.codeOf {
		if c == nullCode || rk.rankOf[c] >= 0 {
			rk.codeOf[r] = nullCode
			continue
		}
		rk.rankOf[c] = int32(r)
	}
	d.rank = rk
}

// RankOfCode returns the rank of each code under the ranking from
// source (−1 for none, and none past its end), or nil when the DB's
// ranking is not from source. The slice is shared, read-only.
func (db *DB) RankOfCode(source any) []int32 {
	if rk := db.dict.ranking(source); rk != nil {
		return rk.rankOf
	}
	return nil
}

// ranking returns the published ranking when it came from source.
func (d *Dict) ranking(source any) *ranking {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.rank != nil && d.rank.source == source {
		return d.rank
	}
	return nil
}
