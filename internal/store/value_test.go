package store

import (
	"bufio"
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{IntValue(3), IntValue(2), 1},
		{FloatValue(1.5), IntValue(2), -1},
		{IntValue(2), FloatValue(2.0), 0},
		{StringValue("a"), StringValue("b"), -1},
		{StringValue("b"), StringValue("b"), 0},
		{BoolValue(false), BoolValue(true), -1},
		{NullValue(), IntValue(0), -1},
		{IntValue(0), NullValue(), 1},
		{NullValue(), NullValue(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := IntValue(a), IntValue(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	// INT 1 and FLOAT 1.0 compare equal → must hash equal.
	if IntValue(1).Hash() != FloatValue(1).Hash() {
		t.Error("equal numeric values hash differently")
	}
	if IntValue(1).Hash() == IntValue(2).Hash() {
		t.Error("distinct ints hash equal (suspicious)")
	}
	if StringValue("x").Hash() == StringValue("y").Hash() {
		t.Error("distinct strings hash equal (suspicious)")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NullValue(), "NULL"},
		{IntValue(-7), "-7"},
		{FloatValue(2.5), "2.5"},
		{StringValue("hi"), `"hi"`},
		{BoolValue(true), "true"},
		{BoolValue(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueEncodingRoundTrip(t *testing.T) {
	vals := []Value{
		NullValue(),
		IntValue(0), IntValue(-1), IntValue(1 << 40), IntValue(math.MinInt64), IntValue(math.MaxInt64),
		FloatValue(0), FloatValue(-2.75), FloatValue(math.Inf(1)), FloatValue(math.SmallestNonzeroFloat64),
		StringValue(""), StringValue("hello"), StringValue(string([]byte{0, 1, 255})),
		BoolValue(true), BoolValue(false),
	}
	var buf []byte
	for _, v := range vals {
		buf = AppendValue(buf, v)
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range vals {
		got, err := ReadValue(r)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got.K != want.K || !Equal(got, want) {
			t.Fatalf("value %d: got %v, want %v", i, got, want)
		}
	}
}

func TestFloatNaNEncodingRoundTrip(t *testing.T) {
	buf := AppendValue(nil, FloatValue(math.NaN()))
	got, err := ReadValue(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.F) {
		t.Fatalf("NaN did not round-trip: %v", got)
	}
}

func TestRowEncodingRoundTrip(t *testing.T) {
	row := Row{IntValue(7), StringValue("kinase"), FloatValue(6.5), BoolValue(true), NullValue()}
	buf := AppendRow(nil, row)
	if got := EncodedRowSize(row); got != len(buf) {
		t.Fatalf("EncodedRowSize = %d, actual = %d", got, len(buf))
	}
	got, err := ReadRow(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(row) {
		t.Fatalf("row length %d, want %d", len(got), len(row))
	}
	for i := range row {
		if !Equal(got[i], row[i]) || got[i].K != row[i].K {
			t.Fatalf("cell %d: got %v, want %v", i, got[i], row[i])
		}
	}
}

func TestRowEncodingPropertyRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		row := Row{IntValue(i), FloatValue(fl), StringValue(s), BoolValue(b)}
		buf := AppendRow(nil, row)
		got, err := ReadRow(bufio.NewReader(bytes.NewReader(buf)))
		if err != nil {
			return false
		}
		if len(buf) != EncodedRowSize(row) {
			return false
		}
		for k := range row {
			if got[k].K != row[k].K {
				return false
			}
			// NaN compares unequal through Compare; check bits.
			if row[k].K == KindFloat {
				if math.Float64bits(got[k].F) != math.Float64bits(row[k].F) {
					return false
				}
				continue
			}
			if !Equal(got[k], row[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadValueRejectsCorruptInput(t *testing.T) {
	// Unknown kind.
	if _, err := ReadValue(bufio.NewReader(bytes.NewReader([]byte{99}))); err == nil {
		t.Error("unknown kind accepted")
	}
	// Truncated float.
	buf := []byte{byte(KindFloat), 1, 2}
	if _, err := ReadValue(bufio.NewReader(bytes.NewReader(buf))); err == nil {
		t.Error("truncated float accepted")
	}
	// Oversized string length.
	huge := AppendValue(nil, StringValue("x"))
	huge[1] = 0xFF
	huge = append(huge[:2], 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := ReadValue(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Error("oversized string accepted")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{IntValue(1), StringValue("a")}
	c := r.Clone()
	c[0] = IntValue(99)
	if r[0].I != 1 {
		t.Fatal("clone aliases original")
	}
}
