package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"drugtree/internal/query"
	"drugtree/internal/store"
)

func TestStatementCacheHitsOnRepeat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryCacheEntries = 16
	e := buildEngine(t, cfg)
	q := "SELECT family, COUNT(*) FROM proteins GROUP BY family ORDER BY family"
	r1, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if e.Metrics.Counter("query.stmt_cache_hits").Value() != 1 {
		t.Fatalf("hits = %d", e.Metrics.Counter("query.stmt_cache_hits").Value())
	}
	// The hit serves a private clone, never the cached pointer.
	if r1 == r2 {
		t.Fatal("cache hit returned the shared cached result pointer")
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("hit rows = %d, want %d", len(r2.Rows), len(r1.Rows))
	}
}

// TestStatementCacheHitIsolation is the cache-aliasing regression
// test: a caller scribbling over the rows one hit returned must not
// corrupt what the next hit serves.
func TestStatementCacheHitIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryCacheEntries = 16
	e := buildEngine(t, cfg)
	q := "SELECT family, COUNT(*) FROM proteins GROUP BY family ORDER BY family"
	fill, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v", fill.Rows)
	for _, r := range fill.Rows {
		for i := range r {
			r[i] = store.StringValue("CORRUPTED")
		}
	}
	hit, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%v", hit.Rows); got != want {
		t.Fatalf("mutating the fill result corrupted the cache:\n got %s\nwant %s", got, want)
	}
	for _, r := range hit.Rows {
		for i := range r {
			r[i] = store.StringValue("CORRUPTED")
		}
	}
	again, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%v", again.Rows); got != want {
		t.Fatalf("mutating a hit result corrupted the cache:\n got %s\nwant %s", got, want)
	}
	// The per-operator stats are the caller's too.
	if len(again.Stats.Ops) == 0 {
		t.Fatal("result carries no per-operator stats")
	}
	wantOps := fmt.Sprintf("%+v", *again.Stats.Ops[0])
	for _, op := range again.Stats.Ops {
		op.RowsOut, op.Name = -99, "CORRUPTED"
	}
	again.Stats.Ops[0] = nil
	last, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if last.Stats.Ops[0] == nil {
		t.Fatal("clearing a hit's per-operator stats reached the cache")
	}
	if got := fmt.Sprintf("%+v", *last.Stats.Ops[0]); got != wantOps {
		t.Fatalf("mutating a hit's per-operator stats corrupted the cache:\n got %s\nwant %s", got, wantOps)
	}
}

// TestQueryColumnsHitSharesResult pins the served path's contract: a
// statement-cache hit through QueryColumns is the cached result itself —
// the same pointer and the same batch, copied nowhere.
func TestQueryColumnsHitSharesResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryCacheEntries = 16
	e := buildEngine(t, cfg)
	ctx := context.Background()
	q := "SELECT family, COUNT(*) FROM proteins GROUP BY family ORDER BY family"
	fill, err := e.QueryColumns(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fill.Batch == nil || fill.Rows != nil {
		t.Fatalf("QueryColumns returned Batch %v and %d rows, want a batch and no rows", fill.Batch, len(fill.Rows))
	}
	hit, err := e.QueryColumns(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if hit != fill || hit.Batch != fill.Batch {
		t.Fatal("a hit did not return the cached result")
	}
	// What a hit costs is parsing the statement, pinning a snapshot and
	// rendering its version key; the result itself is not copied.
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.QueryColumns(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a QueryColumns hit allocates %.0f objects", allocs)
	if allocs > 48 {
		t.Fatalf("a QueryColumns hit allocates %.0f objects, bound 48", allocs)
	}
}

func TestStatementCacheInvalidatedByWrite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryCacheEntries = 16
	e := buildEngine(t, cfg)
	q := "SELECT COUNT(*) FROM ligands"
	r1, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the ligands table: any table version change invalidates.
	lig, err := e.DB().Table("ligands")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.DB().Insert(lig.Name(), store.Row{
		store.StringValue("LIGX"), store.StringValue("x"),
		store.StringValue("CCO"), store.FloatValue(46), store.StringValue("C2H6O"),
	}); err != nil {
		t.Fatal(err)
	}
	r2, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("stale statement served after write")
	}
	if r2.Rows[0][0].I != r1.Rows[0][0].I+1 {
		t.Fatalf("count did not reflect the write: %v vs %v", r2.Rows[0][0], r1.Rows[0][0])
	}
}

func TestStatementCacheLRUEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryCacheEntries = 2
	e := buildEngine(t, cfg)
	queries := []string{
		"SELECT COUNT(*) FROM proteins",
		"SELECT COUNT(*) FROM ligands",
		"SELECT COUNT(*) FROM activities",
	}
	for _, q := range queries {
		if _, err := e.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.stmtCache.len(); got != 2 {
		t.Fatalf("cache holds %d statements, capacity 2", got)
	}
	// The first statement was evicted: querying it misses.
	before := e.Metrics.Counter("query.stmt_cache_hits").Value()
	if _, err := e.Query(context.Background(), queries[0]); err != nil {
		t.Fatal(err)
	}
	if e.Metrics.Counter("query.stmt_cache_hits").Value() != before {
		t.Fatal("evicted statement hit")
	}
	// The most recent one still hits.
	if _, err := e.Query(context.Background(), queries[2]); err != nil {
		t.Fatal(err)
	}
	if e.Metrics.Counter("query.stmt_cache_hits").Value() != before+1 {
		t.Fatal("recent statement missed")
	}
}

func TestStatementCacheDisabledByDefault(t *testing.T) {
	e := buildEngine(t, DefaultConfig())
	q := "SELECT COUNT(*) FROM proteins"
	r1, _ := e.Query(context.Background(), q)
	r2, _ := e.Query(context.Background(), q)
	if r1 == r2 {
		t.Fatal("statement cache active without opt-in")
	}
}

func TestStatementCacheClearedByResetSession(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryCacheEntries = 8
	e := buildEngine(t, cfg)
	q := "SELECT COUNT(*) FROM proteins"
	e.Query(context.Background(), q)
	e.ResetSession()
	if e.stmtCache.len() != 0 {
		t.Fatal("reset did not clear the statement cache")
	}
}

func TestStatementCacheConcurrentAccess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryCacheEntries = 8
	e := buildEngine(t, cfg)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("SELECT COUNT(*) FROM proteins WHERE family = 'FAM%d'", i%3)
				if _, err := e.Query(context.Background(), q); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// batchBytes encodes a result's rows, names decoded and every float by
// its bits (store.AppendValue).
func batchBytes(res *query.Result) []byte {
	var b []byte
	for _, r := range store.RowsFromColBatch(res.Batch, res.Dict) {
		b = store.AppendRow(b, r)
	}
	return b
}

// TestCachedResultsSurviveArenaReuse serves every analytics statement
// through the statement cache, records each result's bytes, then runs
// the same statements uncached (a trailing space is another cache key)
// in reverse order, so the executor's arena lends every buffer the
// cached results' statements used again, and serves the cached results
// once more: each must be the result cached, bit for bit as it was.
func TestCachedResultsSurviveArenaReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryCacheEntries = 64
	e, _ := buildEngineFrom(t, smokeD1(), cfg)
	ctx := context.Background()
	stmts := analyticsStatements(t, e)
	cached := make([]*query.Result, len(stmts))
	want := make([][]byte, len(stmts))
	for i, s := range stmts {
		res, err := e.QueryColumns(ctx, s.text)
		if err != nil {
			t.Fatalf("%s: %q: %v", s.class, s.text, err)
		}
		cached[i], want[i] = res, batchBytes(res)
	}
	for i := len(stmts) - 1; i >= 0; i-- {
		res, err := e.QueryColumns(ctx, stmts[i].text+" ")
		if err != nil {
			t.Fatal(err)
		}
		if res == cached[i] || !bytes.Equal(batchBytes(res), want[i]) {
			t.Fatalf("%s: %q run uncached differs from its cached result", stmts[i].class, stmts[i].text)
		}
	}
	for i, s := range stmts {
		res, err := e.QueryColumns(ctx, s.text)
		if err != nil {
			t.Fatal(err)
		}
		if res != cached[i] {
			t.Fatalf("%s: %q was not served from the statement cache", s.class, s.text)
		}
		if !bytes.Equal(batchBytes(res), want[i]) {
			t.Fatalf("%s: %q: the cached result changed under later statements", s.class, s.text)
		}
	}
}
