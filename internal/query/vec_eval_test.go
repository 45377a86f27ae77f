package query

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"drugtree/internal/store"
)

// FuzzVecEval: the batch compiler (bindVec) agrees with the row compiler
// (bind, rowbind_test.go) on a random expression over a random batch —
// typed and generic columns holding NULL, NaN, ±Inf and −0 cells among
// others, under a random selection (fuzzSelection). Both bind alike (the same error, or
// the same static kind, validate-only included); where row-by-row
// evaluation fails, the batch evaluation fails with the same error at
// the same row; otherwise every selected cell is equal — same kind,
// floats by Float64bits —, and the predicate form keeps exactly the
// rows the row compiler's evalBool accepts. Each evaluation runs twice
// more on a batch with a column pool, poisoned before each, so recycled
// buffers are checked too. The input bytes drive every choice.
func FuzzVecEval(f *testing.F) {
	for _, seed := range []string{"", "\x07\x03\x01\x05", "\x0f\x02\x06\x09\x04\x01\x00\x03", "fuzz the evaluator", "\xff\xfe\x80\x40\x20\x10\x08\x04\x02\x01"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzBytes{data: data}
		schema, b := fuzzBatch(d)
		e := fuzzExpr(d, schema, 4)
		sel := fuzzSelection(d, b.n)
		env := bindEnv{schema: schema}
		be, rerr := bind(e, env)
		ve, verr := bindVec(e, env)
		env.validateOnly = true
		vk, kerr := bindVec(e, env)
		if fmt.Sprint(rerr) != fmt.Sprint(verr) || fmt.Sprint(rerr) != fmt.Sprint(kerr) {
			t.Fatalf("%s: bind error %v, bindVec %v, validate-only %v", e, rerr, verr, kerr)
		}
		if rerr != nil {
			return
		}
		if ve.kind != be.kind || vk.kind != be.kind {
			t.Fatalf("%s: kind %v, bindVec %v, validate-only %v", e, be.kind, ve.kind, vk.kind)
		}
		// The row compiler's answer: each selected row's value, or the
		// first failing row and its error.
		want, failRow, failErr := make(map[int]store.Value, len(sel)), -1, error(nil)
		for _, i := range sel {
			v, err := be.eval(fuzzRow(b, i))
			if err != nil {
				failRow, failErr = i, err
				break
			}
			want[i] = v
		}
		pred, err := bindVecPred(e, bindEnv{schema: schema})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			if round > 0 {
				if b.pool == nil {
					b.pool = &colPool{}
				}
				poison(b.pool)
				b.pool.reset()
			}
			c, err := ve.eval(b, sel)
			pass, perr := pred(b, sel)
			if failErr != nil {
				var re *rowError
				if !errors.As(err, &re) || re.row != failRow || err.Error() != failErr.Error() {
					t.Fatalf("%s (round %d): row compiler fails at row %d with %v; batch compiler with %v", e, round, failRow, failErr, err)
				}
				if perr == nil || perr.Error() != failErr.Error() {
					t.Fatalf("%s (round %d): predicate error %v, want %v", e, round, perr, failErr)
				}
				continue
			}
			if err != nil || perr != nil {
				t.Fatalf("%s (round %d): batch compiler fails (%v, predicate %v); the row compiler does not", e, round, err, perr)
			}
			var keep []int
			for _, i := range sel {
				got, w := c.Value(i), want[i]
				if !identicalValue(got, w) {
					t.Fatalf("%s (round %d): row %d is %#v, the row compiler says %#v", e, round, i, got, w)
				}
				if w.K == store.KindBool && w.Bool() {
					keep = append(keep, i)
				}
			}
			if fmt.Sprint(pass) != fmt.Sprint(keep) {
				t.Fatalf("%s (round %d): predicate keeps %v, the row compiler %v", e, round, pass, keep)
			}
		}
	})
}

// poison overwrites every cell a pool holds, within capacity, with a
// non-NULL value, so an evaluation that relied on a recycled column
// being as new would read it.
func poison(p *colPool) {
	for i := range p.cols {
		c := &p.cols[i]
		for k := range c.Null[:cap(c.Null)] {
			c.Null[:cap(c.Null)][k] = false
		}
		for k := range c.Int[:cap(c.Int)] {
			c.Int[:cap(c.Int)][k] = 7
		}
		for k := range c.Float[:cap(c.Float)] {
			c.Float[:cap(c.Float)][k] = 7
		}
		for k := range c.Str[:cap(c.Str)] {
			c.Str[:cap(c.Str)][k] = "poison"
		}
		for k := range c.Vals[:cap(c.Vals)] {
			c.Vals[:cap(c.Vals)][k] = store.IntValue(7)
		}
	}
}

// identicalValue reports whether two cells are identical: the same kind and
// payload, floats compared by their bits.
func identicalValue(a, b store.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case store.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case store.KindString:
		return a.S == b.S
	case store.KindNull:
		return true
	}
	return a.I == b.I
}

// fuzzBytes hands out the fuzzer's bytes as choices; past the end every
// choice is 0.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (d *fuzzBytes) next(n int) int {
	if d.pos >= len(d.data) {
		return 0
	}
	d.pos++
	return int(d.data[d.pos-1]) % n
}

// fuzzCells is the cell pool: every kind, NULL, and the floats
// comparisons and arithmetic order most carefully.
var fuzzCells = []store.Value{
	store.NullValue(),
	store.FloatValue(math.NaN()), store.FloatValue(math.Inf(1)), store.FloatValue(math.Inf(-1)),
	store.FloatValue(math.Copysign(0, -1)), store.FloatValue(0), store.FloatValue(2.5), store.FloatValue(-1),
	store.IntValue(0), store.IntValue(1), store.IntValue(-3), store.IntValue(1<<53 + 1),
	store.StringValue(""), store.StringValue("a"), store.StringValue("a%"),
	store.BoolValue(true), store.BoolValue(false),
}

// fuzzBatch draws a batch of up to 12 rows over six columns: one typed
// column of each kind, holding cells of that kind or NULL, and two
// generic ones holding anything, declared FLOAT and BOOL.
func fuzzBatch(d *fuzzBytes) (*planSchema, *batch) {
	kinds := []store.Kind{store.KindInt, store.KindFloat, store.KindString, store.KindBool, store.KindNull, store.KindNull}
	declared := []store.Kind{store.KindInt, store.KindFloat, store.KindString, store.KindBool, store.KindFloat, store.KindBool}
	schema := &planSchema{}
	b := &batch{n: 1 + d.next(12)}
	for c, k := range kinds {
		schema.cols = append(schema.cols, planCol{Name: fmt.Sprintf("c%d", c), Kind: declared[c]})
		col := store.NewCol(k, b.n)
		for col.Len() < b.n {
			if v := fuzzCells[d.next(len(fuzzCells))]; k == store.KindNull || v.K == k || v.IsNull() {
				col.Append(v)
			} else {
				col.Append(store.NullValue())
			}
		}
		b.cols = append(b.cols, col)
	}
	return schema, b
}

// fuzzSelection draws an ascending subset of [0, n) — a batch's
// selection — or, now and then, rows in any order with repeats, as a
// group-join evaluates its group keys and arguments.
func fuzzSelection(d *fuzzBytes, n int) []int {
	var sel []int
	if d.next(4) == 0 {
		for k := d.next(2 * n); k > 0; k-- {
			sel = append(sel, d.next(n))
		}
		return sel
	}
	for i := 0; i < n; i++ {
		if d.next(4) != 0 {
			sel = append(sel, i)
		}
	}
	return sel
}

// fuzzExpr draws an expression over the schema's columns and the cell
// pool's literals, at most depth deep.
func fuzzExpr(d *fuzzBytes, schema *planSchema, depth int) Expr {
	k := d.next(8)
	if depth == 0 {
		k %= 2
	}
	switch k {
	case 0:
		return &ColumnRef{Name: schema.cols[d.next(len(schema.cols))].Name}
	case 1:
		return &Literal{Val: fuzzCells[d.next(len(fuzzCells))]}
	case 2:
		return &NegExpr{E: fuzzExpr(d, schema, depth-1)}
	case 3:
		return &NotExpr{E: fuzzExpr(d, schema, depth-1)}
	}
	op := BinOp(d.next(int(OpLike) + 1))
	return &BinaryExpr{Op: op, L: fuzzExpr(d, schema, depth-1), R: fuzzExpr(d, schema, depth-1)}
}

// fuzzRow is row i of the batch, for the row compiler.
func fuzzRow(b *batch, i int) store.Row {
	r := make(store.Row, len(b.cols))
	for c, col := range b.cols {
		r[c] = col.Value(i)
	}
	return r
}
