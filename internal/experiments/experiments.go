// Package experiments implements the DrugTree evaluation suite: every
// table (T1–T14) and figure (F1–F4) in EXPERIMENTS.md is regenerated
// by one Run* function. cmd/drugtree-experiments prints them; bench_test.go
// wraps them as testing.B benchmarks.
//
// The poster publishes no numbered tables or figures (see DESIGN.md
// §0), so this suite operationalizes its claims: tree-query lag and
// its removal (T1, F1), multi-source integration cost (T2, T3, T4),
// and mobile interaction latency (F2, F3, F4).
package experiments

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// Report is one regenerated table or figure. Figures are reported as
// the CSV series that would be plotted.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes records the qualitative expectation and whether it held.
	Notes string
}

// Render formats the report as aligned text.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(r.Header, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	if r.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", r.Notes)
	}
	return b.String()
}

// CSV renders the report as comma-separated values (for plotting the
// figure experiments).
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Header, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// clock times every experiment measurement. The wall-clock default
// reports real latencies; tests swap in a netsim.VirtualClock via
// SetClock so the T1–T8 report shapes are reproducible tick-for-tick
// with no dependence on machine speed.
var clock netsim.Clock = netsim.NewWallClock()

// SetClock replaces the measurement clock and returns a function
// restoring the previous one. Intended for tests.
func SetClock(c netsim.Clock) (restore func()) {
	prev := clock
	clock = c
	return func() { clock = prev }
}

// Runner is one experiment entry point. Run executes under ctx: the
// whole table regeneration aborts when the caller cancels.
type Runner struct {
	ID    string
	Title string
	Run   func(ctx context.Context, seed int64) (*Report, error)
}

// All lists every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"T1", "Query latency by class: naive vs optimized engine", RunT1},
		{"T2", "Remote-source traffic: predicate pushdown ablation", RunT2},
		{"T3", "Join ordering: cost-based vs syntactic", RunT3},
		{"T4", "Entity resolution accuracy and throughput", RunT4},
		{"T5", "Tree reconstruction quality vs generating topology", RunT5},
		{"T6", "Statement cache: first execution vs exact repeat", RunT6},
		{"T8", "Availability under scripted source faults: resilience on vs off", RunT8},
		{"T9", "Overload protection: deadline-aware shedding vs unprotected queueing", RunT9},
		{"T13", "Crash-point torture: deterministic power cuts over the store's WAL and snapshot", RunT13},
		{"T14", "Live ingest: snapshot isolation, incremental overlay identity, reader latency", RunT14},
		{"F1", "Subtree-query latency vs tree size", RunF1},
		{"F2", "Interactive session: semantic cache and prefetching", RunF2},
		{"F3", "Mobile transfer strategies: bytes and modelled latency", RunF3},
		{"F4", "End-to-end mobile latency ablation (3G)", RunF4},
	}
}

// ByID returns the named experiment runner.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// buildStandardEngine generates, integrates and indexes the standard
// benchmark dataset and returns an engine with the given core config.
func buildStandardEngine(ctx context.Context, seed int64, families, perFamily, ligands int, cfg core.Config) (*core.Engine, *source.Bundle, error) {
	gen := datagen.DefaultConfig()
	gen.Seed = seed
	gen.NumFamilies = families
	gen.ProteinsPerFamily = perFamily
	gen.NumLigands = ligands
	gen.ActivityDensity = 0.3
	ds, err := datagen.Generate(gen)
	if err != nil {
		return nil, nil, err
	}
	db, err := store.Open("")
	if err != nil {
		return nil, nil, err
	}
	bundle := source.NewBundle(ds, netsim.ProfileLAN, seed, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(ctx); err != nil {
		return nil, nil, err
	}
	if cfg.Method == "" {
		cfg.Method = core.TreeNJKmer
	}
	e, err := core.New(db, cfg)
	if err != nil {
		return nil, nil, err
	}
	return e, bundle, nil
}

// EngineWithConfig builds the standard benchmark dataset engine with
// an explicit core configuration (exported for bench_test.go).
func EngineWithConfig(ctx context.Context, seed int64, cfg core.Config) (*core.Engine, error) {
	e, _, err := buildStandardEngine(ctx, seed, 10, 20, 60, cfg)
	return e, err
}

// fmtDur renders a duration in microseconds with 1 decimal.
func fmtDur(us float64) string { return fmt.Sprintf("%.1fµs", us) }

// fmtMs renders a duration in milliseconds with 2 decimals.
func fmtMs(ms float64) string { return fmt.Sprintf("%.2fms", ms) }
