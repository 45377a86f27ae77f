package query

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The cancellation contract: a context cancelled before or during
// execution surfaces context.Canceled promptly, and no executor
// goroutine outlives the Query call (workers are joined before any
// operator returns).

// waitGoroutines polls until the goroutine count drops back to at
// most baseline+slack, failing after the deadline. Polling is needed
// because runtime bookkeeping goroutines exit asynchronously.
func waitGoroutines(t *testing.T, baseline int, deadline time.Duration) {
	t.Helper()
	const slack = 2
	start := time.Now()
	for {
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		if time.Since(start) > deadline {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCancelBeforeRun(t *testing.T) {
	cat := testCatalog(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, para := range []int{1, 4} {
		_, err := parallelConfig(para).engine(cat).Query(ctx, "SELECT * FROM proteins")
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", para, err)
		}
	}
}

// slowQueries are heavy enough (seconds uncancelled) that a cancel
// landing mid-flight is overwhelmingly likely; the budget asserts the
// abort actually cut execution short.
var slowCancelQueries = []struct {
	name string
	q    string
}{
	// Mid-scan: a fat cross-ish nested-loop join driven by scans.
	{"mid-join-nested", `SELECT COUNT(*) FROM activities a JOIN activities b ON a.affinity < b.affinity`},
	// Mid-hash-join + aggregation over the joined stream.
	{"mid-join-hash", `SELECT a.ligand_id, COUNT(*) FROM activities a
		JOIN activities b ON a.protein_id = b.protein_id
		JOIN activities c ON b.protein_id = c.protein_id
		GROUP BY a.ligand_id`},
	// Mid-group-join: the top join's build side holds the group key, so
	// ≈ 70 M matches fold straight into the aggregate.
	{"mid-group-join", `SELECT d.ligand_id, COUNT(*) FROM activities a
		JOIN activities b ON a.protein_id = b.protein_id
		JOIN activities c ON b.protein_id = c.protein_id
		JOIN activities d ON c.protein_id = d.protein_id
		GROUP BY d.ligand_id`},
}

func TestCancelMidQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cancellation corpus")
	}
	cat := datagenCatalog(t, 3)
	for _, para := range []int{1, 4} {
		eng := parallelConfig(para).engine(cat)
		for _, tc := range slowCancelQueries {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(20*time.Millisecond, cancel)
			start := time.Now()
			_, err := eng.Query(ctx, tc.q)
			elapsed := time.Since(start)
			timer.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s (parallelism %d): err = %v, want context.Canceled", tc.name, para, err)
			}
			// Uncancelled these queries take seconds; every operator
			// polls once per batch of at most vecBatchSize rows, so the
			// abort lands within milliseconds of the cancel.
			if elapsed > 500*time.Millisecond {
				t.Fatalf("%s (parallelism %d): cancellation took %v", tc.name, para, elapsed)
			}
			waitGoroutines(t, baseline, 2*time.Second)
		}
	}
}

// countdownCtx cancels itself after its Done channel has been polled
// n times — a deterministic fuse that lands cancellation at an exact
// poll site, unlike timer-based cancel which lands wherever the
// scheduler happens to be.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	n     int
	polls int
	ch    chan struct{}
	done  bool
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), n: n, ch: make(chan struct{})}
}

// polled returns how many times Done has been called.
func (c *countdownCtx) polled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if !c.done {
		c.n--
		if c.n <= 0 {
			close(c.ch)
			c.done = true
		}
	}
	return c.ch
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return context.Canceled
	}
	return nil
}

// TestCancelMidBatch sweeps a countdown fuse across every context
// poll site of the engine (operators poll once per batch) for a hash
// join, a keyed probe (the build side's keys drive the probe scan) and a
// group-join, asserting each landing unwinds cleanly: context.Canceled,
// no partial result, no leaked goroutines. Fuses that outlast the query
// must instead produce the complete result. The folds that read storage
// — an aggregate over an index range, one over a sequential scan with a
// residual, and the group-join — poll once per batch their residual
// filters and once per morsel they fill: their sweep covers every poll
// the statement makes, and a fuse on any of them must cancel.
func TestCancelMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cancellation sweep")
	}
	cat := datagenCatalog(t, 5)
	for _, c := range []struct {
		name, q, plan string
		fill          bool // a fold reads storage: sweep every poll
	}{
		{"mid-join", `SELECT p.accession, a.ligand_id FROM proteins p
			JOIN activities a ON p.accession = a.protein_id WHERE a.affinity > 1`, "HashJoin", false},
		{"mid-keyed-probe", `SELECT p.accession, a.ligand_id FROM proteins p
			JOIN activities a ON p.accession = a.protein_id WHERE p.family = 'FAM01' AND a.affinity > 1`, "probe=keys", false},
		{"mid-group-join", `SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p
			JOIN activities a ON p.accession = a.protein_id WHERE a.affinity > 1 GROUP BY p.family`, "GroupJoin", true},
		{"mid-fill-range", `SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities
			WHERE affinity > 1 GROUP BY ligand_id`, "IndexRangeScan", true},
		{"mid-fill-seq", `SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities
			WHERE affinity * 2.0 > 2.0 GROUP BY ligand_id`, "SeqScan", true},
	} {
		for _, para := range []int{1, 4} {
			eng := parallelConfig(para).engine(cat)
			full, err := eng.Query(context.Background(), c.q)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(full.Plan, c.plan) {
				t.Fatalf("%s: plan lacks %q:\n%s", c.name, c.plan, full.Plan)
			}
			fuses := 64
			if c.fill {
				// Every poll of the statement, and one fuse past them.
				probe := newCountdownCtx(1 << 30)
				res, err := eng.Query(probe, c.q)
				if err != nil {
					t.Fatal(err)
				}
				if filled := scanRowsOut(res, "activities"); filled < 4*vecBatchSize || probe.polled() < int(filled)/foldMorsel {
					t.Fatalf("%s, parallelism %d: %d rows filled over %d polls; want > %d rows, a poll a morsel", c.name, para, filled, probe.polled(), 4*vecBatchSize)
				}
				fuses = probe.polled() + 1
				t.Logf("%s, parallelism %d: %d rows filled, %d polls", c.name, para, scanRowsOut(res, "activities"), probe.polled())
			}
			cancelled := 0
			for n := 1; n <= fuses; n++ {
				baseline := runtime.NumGoroutine()
				res, err := eng.Query(newCountdownCtx(n), c.q)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%s, parallelism %d, fuse %d: err = %v, want context.Canceled", c.name, para, n, err)
					}
					if res != nil {
						t.Fatalf("%s, parallelism %d, fuse %d: partial result returned alongside error", c.name, para, n)
					}
					cancelled++
					waitGoroutines(t, baseline, 2*time.Second)
					continue
				}
				if len(res.Rows) != len(full.Rows) {
					t.Fatalf("%s, parallelism %d, fuse %d: completed with %d rows, want %d",
						c.name, para, n, len(res.Rows), len(full.Rows))
				}
			}
			if cancelled == 0 || (c.fill && cancelled != fuses-1) {
				t.Fatalf("%s, parallelism %d: %d of %d fuses cancelled the query", c.name, para, cancelled, fuses)
			}
		}
	}
}

// TestCancelDeadline covers the other common cancellation shape: a
// deadline expiring mid-flight surfaces context.DeadlineExceeded.
func TestCancelDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cancellation corpus")
	}
	cat := datagenCatalog(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := parallelConfig(4).engine(cat).Query(ctx, slowCancelQueries[0].q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestNilContextRuns pins the compatibility contract: Run(nil, ...)
// behaves like context.Background().
func TestNilContextRuns(t *testing.T) {
	cat := testCatalog(t)
	stmt, err := Parse("SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(cat, DefaultOptions()).Run(nil, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch.Rows != 1 {
		t.Fatalf("%d rows, want 1", res.Batch.Rows)
	}
	if got := res.Batch.Cols[0].Value(0); got.I != 60 {
		t.Fatalf("COUNT(*) = %v, want 60", got)
	}
}

// scanRowsOut returns the rows the statement's scan of table emitted —
// EXPLAIN ANALYZE's rows= on its line; for the scan a fold consumes, the
// rows the fold filled from storage — or -1 when no scan reads table.
func scanRowsOut(res *Result, table string) int64 {
	for _, op := range res.Stats.Ops {
		if strings.Contains(op.Name, "Scan "+table+" ") {
			return op.RowsOut
		}
	}
	return -1
}
