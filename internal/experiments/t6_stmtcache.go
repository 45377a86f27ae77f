package experiments

import (
	"context"
	"fmt"
	"time"

	"drugtree/internal/core"
)

// RunT6 measures the statement-level result cache: the cost of the
// first execution of each T1 query class versus an exact repeat (the
// dashboard-refresh pattern a long-lived DrugTree server sees), plus
// the post-write invalidation cost.
func RunT6(ctx context.Context, seed int64) (*Report, error) {
	cfg := core.DefaultConfig()
	cfg.Method = core.TreeNJKmer
	cfg.CacheBytes = 0 // isolate the statement cache
	cfg.QueryCacheEntries = 64
	e, _, err := buildStandardEngine(ctx, seed, 10, 20, 60, cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "T6",
		Title:  "Statement cache: first execution vs exact repeat (optimized engine)",
		Header: []string{"query class", "first run", "repeat (cached)", "speedup"},
	}
	const repeats = 50
	for _, cls := range t1QueryClasses() {
		q := cls.mk(e)
		start := clock.Now()
		if _, err := e.QueryColumns(ctx, q); err != nil {
			return nil, fmt.Errorf("T6 %s: %w", cls.name, err)
		}
		first := clock.Now() - start
		start = clock.Now()
		for i := 0; i < repeats; i++ {
			if _, err := e.QueryColumns(ctx, q); err != nil {
				return nil, err
			}
		}
		repeat := (clock.Now() - start) / repeats
		if repeat <= 0 {
			repeat = time.Nanosecond // virtual clocks may not advance here
		}
		if first <= 0 {
			first = time.Nanosecond
		}
		rep.Rows = append(rep.Rows, []string{
			cls.name,
			fmtDur(float64(first.Nanoseconds()) / 1e3),
			fmtDur(float64(repeat.Nanoseconds()) / 1e3),
			fmt.Sprintf("%.0fx", float64(first)/float64(repeat)),
		})
	}
	rep.Notes = "expectation: repeats collapse to cache-probe cost (µs) regardless of query class; any write anywhere invalidates conservatively (version-sum check)"
	return rep, nil
}
