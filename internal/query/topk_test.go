package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"drugtree/internal/store"
)

// sortCells are the INT, FLOAT and STRING cells a sort key's comparator
// must order as store.Compare does: NULL first, NaN below every number
// and equal to itself, −0 equal to +0, and the infinities and extreme
// integers at the ends.
func sortCells() []*store.Col {
	ints := []store.Value{store.NullValue(), store.IntValue(math.MinInt64), store.IntValue(-1), store.IntValue(0),
		store.IntValue(1), store.IntValue(1 << 53), store.IntValue(1<<53 + 1), store.IntValue(math.MaxInt64)}
	floats := []store.Value{store.NullValue(), store.FloatValue(math.NaN()), store.FloatValue(-math.NaN()), store.FloatValue(math.Inf(-1)),
		store.FloatValue(-1), store.FloatValue(math.Copysign(0, -1)), store.FloatValue(0), store.FloatValue(0.5),
		store.FloatValue(1 << 53), store.FloatValue(math.Inf(1))}
	strs := []store.Value{store.NullValue(), store.StringValue(""), store.StringValue("a"), store.StringValue("b")}
	var cols []*store.Col
	for _, vals := range []struct {
		kind store.Kind
		vals []store.Value
	}{{store.KindInt, ints}, {store.KindFloat, floats}, {store.KindString, strs}} {
		c := store.NewCol(vals.kind, len(vals.vals))
		for _, v := range vals.vals {
			c.Append(v)
		}
		cols = append(cols, c)
	}
	return cols
}

// TestCompareCells compares every pair of cells, within a kind and
// across kinds, by compareCells and by store.Compare over their Values.
func TestCompareCells(t *testing.T) {
	cols := sortCells()
	for _, a := range cols {
		for _, b := range cols {
			for i := range a.Len() {
				for j := range b.Len() {
					got, want := compareCells(a, i, b, j), store.Compare(a.Value(i), b.Value(j))
					if got != want {
						t.Errorf("%v against %v: compareCells %d, store.Compare %d", a.Value(i), b.Value(j), got, want)
					}
				}
			}
		}
	}
}

// sortCatalog holds t(id INT, i INT, f FLOAT): 2 600 rows (three
// batches) drawn from few values — NULL, NaN, ±0, ±Inf and extreme
// integers among them — so nearly every key ties, and no index, so a
// scan delivers rows in the same order to every statement.
func sortCatalog(tb testing.TB) *DBCatalog {
	tb.Helper()
	db, err := store.Open("")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	if _, err := db.CreateTable("t", store.MustSchema(store.Column{Name: "id", Kind: store.KindInt},
		store.Column{Name: "i", Kind: store.KindInt}, store.Column{Name: "f", Kind: store.KindFloat})); err != nil {
		tb.Fatal(err)
	}
	cells := sortCells()
	ints, floats := cells[0], cells[1]
	rng := rand.New(rand.NewSource(59))
	delta := store.TableDelta{Table: "t"}
	for id := range 2600 {
		delta.Inserts = append(delta.Inserts, store.Row{store.IntValue(int64(id)), ints.Value(rng.Intn(ints.Len())), floats.Value(rng.Intn(floats.Len()))})
	}
	if err := db.CommitDeltas([]store.TableDelta{delta}); err != nil {
		tb.Fatal(err)
	}
	return NewDBCatalog(db, nil)
}

// TestTopKIsStableSortPrefix wants ORDER BY … LIMIT k, run as TopK and
// ordered by its in-place heapsort, to return the first k rows of a
// stable sort of the scan's rows by store.Compare (ties in arrival
// order), and ORDER BY without a limit the whole of it.
func TestTopKIsStableSortPrefix(t *testing.T) {
	cat := sortCatalog(t)
	eng := defaultConfig().engine(cat)
	ctx := context.Background()
	scan, err := eng.Query(ctx, "SELECT id, i, f FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []string{"i", "i DESC", "f", "f DESC", "f, i DESC", "i DESC, f", "-f"} {
		want := append([]store.Row(nil), scan.Rows...)
		sort.SliceStable(want, func(a, b int) bool {
			for _, key := range strings.Split(order, ", ") {
				col, desc := 1, strings.HasSuffix(key, " DESC")
				if strings.Contains(key, "f") {
					col = 2
				}
				x, y := want[a][col], want[b][col]
				if strings.HasPrefix(key, "-") {
					x, y = negated(x), negated(y)
				}
				if c := store.Compare(x, y); c != 0 {
					return (c < 0) != desc
				}
			}
			return false
		})
		for _, k := range []int{1, 2, 7, 100, 1023, 1024, 1025, 2599, 2600, 5000, 0} {
			q := "SELECT id FROM t ORDER BY " + order
			n := len(want)
			if k > 0 {
				q, n = q+fmt.Sprintf(" LIMIT %d", k), min(k, len(want))
			}
			res, err := eng.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if k > 0 && !strings.Contains(res.Plan, "TopK") {
				t.Fatalf("%s: no TopK in the plan:\n%s", q, res.Plan)
			}
			if len(res.Rows) != n {
				t.Fatalf("%s: %d rows, want %d", q, len(res.Rows), n)
			}
			for r, row := range res.Rows {
				if row[0].I != want[r][0].I {
					t.Fatalf("%s: row %d is id %d, the stable sort's is id %d", q, r, row[0].I, want[r][0].I)
				}
			}
		}
	}
}

// negated is -v for a FLOAT v, and v itself for NULL.
func negated(v store.Value) store.Value {
	if v.K == store.KindFloat {
		return store.FloatValue(-v.F)
	}
	return v
}
