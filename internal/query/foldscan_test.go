package query

import (
	"context"
	"fmt"
	"slices"
	"sort"
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

// sortedRows is exactRows with the rows in sorted order.
func sortedRows(rows []store.Row) string {
	lines := strings.Split(exactRows(rows), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// passThrough hands its input's batches on unchanged. Wrapped around a
// scan it hides the scan from foldAll, which then folds the batches the
// scan streams — the oracle for a fold that reads storage.
type passThrough struct{ in batchIterator }

func (p passThrough) nextBatch() (*batch, error) { return p.in.nextBatch() }

// streamFolds wraps each scan that a fold in the operator tree reads
// directly — an aggregate's input, a group-join's probe — in a
// passThrough, and returns how many it wrapped.
func streamFolds(it batchIterator) int {
	switch o := it.(type) {
	case *vecProject:
		return streamFolds(o.in)
	case *vecFilter:
		return streamFolds(o.in)
	case *vecLimit:
		return streamFolds(o.in)
	case *vecSort:
		return streamFolds(o.in)
	case *vecTopK:
		return streamFolds(o.in)
	case *vecAgg:
		if s, ok := o.in.(*vecScan); ok {
			o.in = passThrough{s}
			return 1
		}
		return streamFolds(o.in)
	case *vecGroupJoin:
		n := streamFolds(o.buildIn)
		if s, ok := o.probeIn.(*vecScan); ok {
			o.probeIn = passThrough{s}
			return n + 1
		}
		return n + streamFolds(o.probeIn)
	}
	return 0
}

// runStreamed is Engine.RunAt with every fold over a scan folding the
// scan's streamed batches instead of reading storage; it also returns
// how many folds it rewired.
func runStreamed(e *Engine, stmt *SelectStmt, snap *store.SnapshotHandle) (*Result, int, error) {
	ctx := context.Background()
	logical, err := BuildLogical(stmt, e.cat)
	if err != nil {
		return nil, 0, err
	}
	optimized, err := Optimize(logical, e.cat, e.opts)
	if err != nil {
		return nil, 0, err
	}
	ec := e.newExecCtx(ctx, snap)
	root, err := build(optimized, ec, 0)
	if err != nil {
		return nil, 0, err
	}
	wrapped := streamFolds(root)
	res := &Result{Columns: outputColumns(optimized), Dict: snap.Dict(), Plan: strings.Join(ec.plan, "\n")}
	if res.Batch, err = drainColumns(ctx, root, optimized.Schema()); err != nil {
		return nil, 0, err
	}
	if stmt.Analyze {
		res.Plan, res.Batch = annotatePlan(ec.plan, ec.stats.Ops), nil
	}
	return res, wrapped, nil
}

// TestFoldFromStorageMatchesGather runs every fold shape twice, at one
// pin: as the engine runs it, where the fold reads storage a morsel at a
// time, and with the fold's scan hidden behind a pass-through, where the
// fold takes its batch path over the batches the scan streams. The
// answers must agree bit for bit and in order — float sums included,
// since both fold the rows in selection order — and so must EXPLAIN
// ANALYZE's per-operator counters.
func TestFoldFromStorageMatchesGather(t *testing.T) {
	cat := datagenCatalog(t, 7)
	ctx := context.Background()
	snap := cat.PinSnapshot()
	defer snap.Release()
	eng := serialConfig().engine(cat)
	for _, q := range foldShapes {
		for _, prefix := range []string{"", "EXPLAIN ANALYZE "} {
			stmt, err := Parse(prefix + q)
			if err != nil {
				t.Fatal(err)
			}
			filled, err := eng.RunAt(ctx, stmt, snap)
			if err != nil {
				t.Fatal(err)
			}
			streamed, wrapped, err := runStreamed(eng, stmt, snap)
			if err != nil {
				t.Fatal(err)
			}
			if wrapped != 1 {
				t.Fatalf("%q: %d folds read a scan, want 1", q, wrapped)
			}
			if prefix == "" && (filled.Batch == nil || streamed.Batch == nil) {
				t.Fatalf("%q: a run delivered no batch", q)
			}
			if got, want := exactRows(store.RowsFromColBatch(filled.Batch, filled.Dict)), exactRows(store.RowsFromColBatch(streamed.Batch, streamed.Dict)); got != want {
				t.Fatalf("%q: folded from storage\n%s\nfolded from the stream\n%s", q, got, want)
			}
			if filled.Plan != streamed.Plan {
				t.Fatalf("%q: counters differ\nfolded from storage:\n%s\nfolded from the stream:\n%s", q, filled.Plan, streamed.Plan)
			}
		}
	}
}

// TestUnpinnedFoldsGather: the two reads with no pin behind them — a
// statement run with no snapshot, and a table created after the
// statement's pin — once gathered under the read lock; now neither
// reads. A fold statement run with no snapshot is an error, and a fold
// over a table created after its caller's pin returns the snapshot's
// error, while the same fold run at a fresh pin counts every row of the
// late table.
func TestUnpinnedFoldsGather(t *testing.T) {
	cat := datagenCatalog(t, 7)
	ctx := context.Background()
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
	lateFold, err := Parse("SELECT g, COUNT(*) FROM late WHERE x >= 0 GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	eng := serialConfig().engine(cat)
	for _, c := range []struct {
		q    string
		snap *store.SnapshotHandle
		want string
	}{
		{"SELECT protein_id, COUNT(*) FROM activities WHERE affinity >= 0 GROUP BY protein_id", nil, "query: statement run with no pinned snapshot"},
		{"SELECT g, COUNT(*) FROM late WHERE x >= 0 GROUP BY g", snap, `store: no table "late" in snapshot`},
	} {
		stmt, err := Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunAt(ctx, stmt, c.snap); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%q: err = %v, want %q", c.q, err, c.want)
		}
	}
	res, err := eng.Run(ctx, lateFold)
	if err != nil {
		t.Fatal(err)
	}
	sum := int64(0)
	for i := 0; i < res.Batch.Rows; i++ {
		sum += res.Batch.Cols[1].Value(i).I
	}
	if res.Batch.Rows != 7 || sum != n {
		t.Fatalf("%d groups count %d rows, want 7 groups of %d", res.Batch.Rows, sum, n)
	}
}

// TestStatementsReadTheirPin: every statement reads one pinned image.
// While a committer replaces rows of activities again and again — the
// contents never change, the slots do, so GC frees and reuses them
// between reads — each Run of a fold and of a streaming scan, over an
// index range and a sequential pass with a residual, at one worker and
// at four, must answer exactly as before the first commit: a read that
// straddled two versions would see a replaced row twice or not at all.
// Once the committer stops, no snapshot, pinned version or dead version
// remains. Run under the race detector (make race).
func TestStatementsReadTheirPin(t *testing.T) {
	cat := datagenCatalog(t, 7)
	ctx := context.Background()
	var err error
	queries := []string{
		"SELECT protein_id, COUNT(*) FROM activities WHERE affinity >= 0 GROUP BY protein_id",
		"SELECT protein_id, COUNT(*), MIN(ligand_id) FROM activities WHERE affinity * 2.0 >= 0 GROUP BY protein_id",
		"SELECT protein_id, ligand_id FROM activities WHERE affinity >= 0",
		"SELECT protein_id, ligand_id FROM activities WHERE affinity * 2.0 >= 0",
	}
	stmts := make([]*SelectStmt, len(queries))
	want := make([]string, len(queries))
	for i, q := range queries {
		if stmts[i], err = Parse(q); err != nil {
			t.Fatal(err)
		}
		res, err := serialConfig().engine(cat).Run(ctx, stmts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortedRows(store.RowsFromColBatch(res.Batch, res.Dict))
	}
	plans := ""
	for _, q := range queries {
		plans += mustQuery(t, serialConfig().engine(cat), "EXPLAIN "+q).Plan + "\n"
	}
	for _, shape := range []string{"IndexRangeScan activities", "SeqScan activities"} {
		if !strings.Contains(plans, shape) {
			t.Fatalf("no statement reads by %s:\n%s", shape, plans)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commitErr error
	var commits atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tb, err := cat.DB.Table("activities")
			if err != nil {
				commitErr = err
				return
			}
			d := store.TableDelta{Table: "activities"}
			tb.Scan(func(id int64, r store.Row) bool {
				if len(d.DeleteIDs) < 500 {
					d.DeleteIDs, d.Inserts = append(d.DeleteIDs, id), append(d.Inserts, slices.Clone(r))
				}
				return true
			})
			if commitErr = cat.DB.CommitDeltas([]store.TableDelta{d}); commitErr != nil {
				return
			}
			commits.Add(1)
		}
	}()
	stopped := false
	halt := func() {
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
		}
	}
	defer halt()
	for _, para := range []int{1, diffWorkers} {
		eng := parallelConfig(para).engine(cat)
		// Read until the committer has landed twenty commits in between.
		for round, start := 0, commits.Load(); round < 10000 && commits.Load() < start+20; round++ {
			for i, stmt := range stmts {
				res, err := eng.Run(ctx, stmt)
				if err != nil {
					t.Fatal(err)
				}
				if got := sortedRows(store.RowsFromColBatch(res.Batch, res.Dict)); got != want[i] {
					t.Fatalf("%q, parallelism %d, round %d: the answer is not the pinned image's", queries[i], para, round)
				}
			}
		}
	}
	halt()
	if commitErr != nil {
		t.Fatal(commitErr)
	}
	if commits.Load() < 40 {
		t.Fatalf("only %d commits landed between the reads", commits.Load())
	}
	if n := cat.DB.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots still active", n)
	}
	if n := cat.DB.PinnedVersions(); n != 0 {
		t.Fatalf("%d versions still pinned", n)
	}
	if n := cat.DB.DeadVersions(); n != 0 {
		t.Fatalf("%d dead versions at rest", n)
	}
}
