package store

import "testing"

// TestDictEncode: Encode codes a plain column's cells at the rows it is
// given — a coded string as its code, a string the dictionary lacks or
// a cell of another kind as −1 — keeps NULL cells NULL and leaves cells
// off the rows NULL; Decode turns the codes back into the strings.
func TestDictEncode(t *testing.T) {
	d := newDict()
	kinase, ligase := int64(d.intern("kinase")), int64(d.intern("ligase"))
	empty := int64(d.intern(""))
	plain := NewCol(KindString, 6)
	for _, v := range []Value{StringValue("ligase"), StringValue("absent"), NullValue(), StringValue(""), StringValue("kinase"), StringValue("ligase")} {
		plain.Append(v)
	}
	var coded Col
	d.Encode(&coded, plain, []int{0, 1, 2, 3, 4})
	want := []int64{ligase, -1, 0, empty, kinase, 0}
	wantNull := []bool{false, false, true, false, false, true}
	if coded.Kind != KindCode || coded.Len() != plain.Len() {
		t.Fatalf("coded column is %v of %d cells, want KindCode of %d", coded.Kind, coded.Len(), plain.Len())
	}
	for i := range want {
		if coded.Null[i] != wantNull[i] || !coded.Null[i] && coded.Int[i] != want[i] {
			t.Errorf("cell %d: null %v code %d, want null %v code %d", i, coded.Null[i], coded.Int[i], wantNull[i], want[i])
		}
	}
	ints := NewCol(KindInt, 1)
	ints.Append(IntValue(7))
	d.Encode(&coded, ints, []int{0})
	if coded.Len() != 1 || coded.Null[0] || coded.Int[0] != -1 {
		t.Errorf("an INT cell coded to null %v code %d, want code -1", coded.Null[0], coded.Int[0])
	}
	d.Encode(&coded, plain, []int{0, 3, 4})
	var back Col
	d.Decode(&back, &coded, []int{0, 3, 4})
	for _, i := range []int{0, 3, 4} {
		if back.Null[i] || back.Str[i] != plain.Str[i] {
			t.Errorf("cell %d decodes to %q, want %q", i, back.Str[i], plain.Str[i])
		}
	}
}
