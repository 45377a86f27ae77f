package query

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"drugtree/internal/store"
)

// exactRows renders rows bit for bit, floats included, in order.
func exactRows(rows []store.Row) string {
	var b []byte
	for _, r := range rows {
		for _, v := range r {
			if v.K == store.KindFloat {
				b = fmt.Appendf(b, "|%b", v.F)
				continue
			}
			b = append(b, '|')
			b = store.AppendValue(b, v)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// TestFoldFromStorageMatchesGather runs every fold shape twice at each
// worker count: pinned, where the fold reads storage, and unpinned
// (RunAt with no snapshot), where the scan gathers as it always did.
// The answers must agree bit for bit and in order — float sums
// included, since the batches and the chunks per worker are the same —
// and so must EXPLAIN ANALYZE's per-operator counters.
func TestFoldFromStorageMatchesGather(t *testing.T) {
	cat := datagenCatalog(t, 7)
	ctx := context.Background()
	for _, q := range foldShapes {
		for _, para := range []int{1, diffParallelism} {
			eng := NewEngine(cat, parallelOptions(para))
			for _, prefix := range []string{"", "EXPLAIN ANALYZE "} {
				stmt, err := Parse(prefix + q)
				if err != nil {
					t.Fatal(err)
				}
				pinned, err := eng.Run(ctx, stmt)
				if err != nil {
					t.Fatal(err)
				}
				gathered, err := eng.RunAt(ctx, stmt, nil)
				if err != nil {
					t.Fatal(err)
				}
				if empty := strings.Contains(q, "1000"); (pinned.Stats.RowsFilled == 0) != empty {
					t.Fatalf("%q, parallelism %d: a pinned run folded %d rows from storage", q, para, pinned.Stats.RowsFilled)
				}
				if gathered.Stats.RowsFilled != 0 {
					t.Fatalf("%q, parallelism %d: an unpinned run folded %d rows from storage", q, para, gathered.Stats.RowsFilled)
				}
				if prefix == "" && (pinned.Batch == nil || gathered.Batch == nil) {
					t.Fatalf("%q, parallelism %d: a run delivered no batch", q, para)
				}
				if got, want := exactRows(store.RowsFromColBatch(pinned.Batch)), exactRows(store.RowsFromColBatch(gathered.Batch)); got != want {
					t.Fatalf("%q, parallelism %d: folded from storage\n%s\ngathered\n%s", q, para, got, want)
				}
				if pinned.Plan != gathered.Plan {
					t.Fatalf("%q, parallelism %d: counters differ\nfolded from storage:\n%s\ngathered:\n%s", q, para, pinned.Plan, gathered.Plan)
				}
			}
		}
	}
}

// TestUnpinnedFoldsGather: the two reads with no pin behind them — a
// statement run with no snapshot, and a table created after the
// statement's pin — keep gathering under the read lock while a
// committer retires and inserts rows, so GC frees and reuses slots
// between reads. Run under the race detector (make race).
func TestUnpinnedFoldsGather(t *testing.T) {
	cat := datagenCatalog(t, 7)
	snap := cat.PinSnapshot()
	defer snap.Release()
	late, err := cat.DB.CreateTable("late", store.MustSchema(
		store.Column{Name: "g", Kind: store.KindInt},
		store.Column{Name: "x", Kind: store.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := late.CreateIndex("x", store.IndexBTree); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	var rows []store.Row
	for i := 0; i < n; i++ {
		rows = append(rows, store.Row{store.IntValue(int64(i % 7)), store.FloatValue(float64(i))})
	}
	if err := cat.DB.CommitDeltas([]store.TableDelta{{Table: "late", Inserts: rows}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commitErr error
	var commits atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Replace every row of both tables read below, again and again:
		// the row count never changes, the slots do.
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range []string{"late", "activities"} {
				tb, err := cat.DB.Table(name)
				if err != nil {
					commitErr = err
					return
				}
				d := store.TableDelta{Table: name}
				tb.Scan(func(id int64, r store.Row) bool {
					if len(d.DeleteIDs) < 500 {
						d.DeleteIDs, d.Inserts = append(d.DeleteIDs, id), append(d.Inserts, r.Clone())
					}
					return true
				})
				if commitErr = cat.DB.CommitDeltas([]store.TableDelta{d}); commitErr != nil {
					return
				}
				commits.Add(1)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
		if commitErr != nil {
			t.Fatal(commitErr)
		}
	}()
	activities, err := cat.DB.Table("activities")
	if err != nil {
		t.Fatal(err)
	}
	total := int64(activities.Len())
	for _, para := range []int{1, diffParallelism} {
		eng := NewEngine(cat, parallelOptions(para))
		// Read until the committer has landed twenty commits in between.
		for round, start := 0, commits.Load(); round < 10000 && commits.Load() < start+20; round++ {
			for _, c := range []struct {
				q    string
				snap *store.SnapshotHandle
				want int64
			}{
				{"SELECT g, COUNT(*) FROM late WHERE x >= 0 GROUP BY g", snap, n},
				{"SELECT protein_id, COUNT(*) FROM activities WHERE affinity >= 0 GROUP BY protein_id", nil, total},
			} {
				stmt, err := Parse(c.q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.RunAt(context.Background(), stmt, c.snap)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.RowsFilled != 0 {
					t.Fatalf("%q, parallelism %d: folded %d rows from storage with no pin", c.q, para, res.Stats.RowsFilled)
				}
				sum := int64(0)
				for i := 0; i < res.Batch.Rows; i++ {
					sum += res.Batch.Cols[1].Value(i).I
				}
				// A read may straddle no commit: the counts add up to the
				// table's unchanging size.
				if sum != c.want {
					t.Fatalf("%q, parallelism %d: groups count %d rows, want %d", c.q, para, sum, c.want)
				}
			}
		}
	}
}
