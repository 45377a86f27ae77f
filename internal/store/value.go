// Package store implements DrugTree's embedded row store: typed
// tables with hash and B+-tree secondary indexes, table statistics for
// the cost-based optimizer, and WAL + snapshot persistence.
package store

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates value types.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a compact tagged union holding one cell. The zero Value is
// NULL.
type Value struct {
	K Kind
	I int64   // KindInt and KindBool (0/1)
	F float64 // KindFloat
	S string  // KindString
}

// Typed constructors.

// NullValue returns the NULL value.
func NullValue() Value { return Value{} }

// IntValue returns an INT value.
func IntValue(i int64) Value { return Value{K: KindInt, I: i} }

// FloatValue returns a FLOAT value.
func FloatValue(f float64) Value { return Value{K: KindFloat, F: f} }

// StringValue returns a STRING value.
func StringValue(s string) Value { return Value{K: KindString, S: s} }

// BoolValue returns a BOOL value.
func BoolValue(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean interpretation (only valid for KindBool).
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// AsFloat widens INT to FLOAT for mixed-type numeric comparison and
// arithmetic; other kinds return NaN.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	return math.NaN()
}

// Numeric reports whether the value is INT or FLOAT.
func (v Value) Numeric() bool { return v.K == KindInt || v.K == KindFloat }

// Compare orders two values — a total order. NULL sorts before
// everything; numeric kinds compare by value across INT/FLOAT, with -0
// equal to +0 and NaN equal to itself and below every other number;
// distinct non-numeric kinds compare by kind tag (deterministic but
// meaningless, queries type-check before reaching here). Returns -1, 0,
// or +1.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.Numeric() && b.Numeric() {
		if a.K == KindInt && b.K == KindInt {
			return cmp.Compare(a.I, b.I)
		}
		return cmp.Compare(a.AsFloat(), b.AsFloat())
	}
	if a.K != b.K {
		return cmp.Compare(a.K, b.K)
	}
	switch a.K {
	case KindString:
		return cmp.Compare(a.S, b.S)
	case KindBool:
		return cmp.Compare(a.I, b.I)
	}
	return 0
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a hash of the value consistent with Equal: numeric
// values hash by their float64 widening so 1 and 1.0 collide, -0 hashes
// as +0 and every NaN alike, matching Compare. It is FNV-1a over a kind
// tag and the payload bytes, computed inline so index and join loops
// stay allocation-free.
func (v Value) Hash() uint64 {
	switch v.K {
	case KindInt:
		return hashNumber(float64(v.I))
	case KindFloat:
		return hashNumber(v.F)
	case KindString:
		return hashString(v.S)
	case KindBool:
		return hashBool(v.I)
	}
	return hashNull
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvTag starts a hash with the kind's tag byte.
func fnvTag(tag uint64) uint64 {
	h := fnvOffset
	return (h ^ tag) * fnvPrime
}

var hashNull = fnvTag(0)

func hashNumber(f float64) uint64 {
	switch {
	case f == 0:
		f = 0 // -0 equals +0
	case f != f:
		f = math.NaN() // one NaN
	}
	bits := math.Float64bits(f)
	h := fnvTag(1)
	for s := 0; s < 64; s += 8 {
		h = (h ^ (bits >> s & 0xff)) * fnvPrime
	}
	return h
}

func hashString(s string) uint64 {
	h := fnvTag(2)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashBool(i int64) uint64 {
	return (fnvTag(3) ^ uint64(i&0xff)) * fnvPrime
}

// String renders the value for display and EXPLAIN output.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.S)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Row is one record: a dense slice of cells matching a table schema.
type Row []Value
