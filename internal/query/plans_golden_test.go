package query

import (
	"context"
	"flag"
	"os"
	"strings"
	"testing"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans.golden from the current planner")

// goldenOptions lists the option sets whose plans plans.golden pins: the
// default and naive engines, and each optimization switched off alone.
func goldenOptions() []struct {
	name string
	opts Options
} {
	type set = struct {
		name string
		opts Options
	}
	out := []set{{"default", DefaultOptions()}, {"naive", NaiveOptions()}}
	for _, ab := range []struct {
		name string
		off  func(*Options)
	}{
		{"no-subtree-rewrite", func(o *Options) { o.SubtreeRewrite = false }},
		{"no-pushdown", func(o *Options) { o.Pushdown = false }},
		{"no-join-reorder", func(o *Options) { o.JoinReorder = false }},
		{"no-indexes", func(o *Options) { o.UseIndexes = false }},
		{"no-constant-fold", func(o *Options) { o.ConstantFold = false }},
		{"no-prune-columns", func(o *Options) { o.PruneColumns = false }},
	} {
		o := DefaultOptions()
		ab.off(&o)
		out = append(out, set{ab.name, o})
	}
	return out
}

// TestPlansGolden pins, byte for byte, the EXPLAIN text of the
// differential corpus (over testCatalog) and of foldShapes (over the
// datagen catalog) under every goldenOptions set. A planner change that
// moves a plan shows here; rewrite the file with
// `go test ./internal/query -run TestPlansGolden -update-plans` only
// when the move is intended.
func TestPlansGolden(t *testing.T) {
	var b strings.Builder
	explain := func(cat Catalog, q string) {
		for _, s := range goldenOptions() {
			res, err := NewEngine(cat, s.opts).Query(context.Background(), "EXPLAIN "+q)
			if err != nil {
				t.Fatalf("EXPLAIN %q [%s]: %v", q, s.name, err)
			}
			b.WriteString("> [" + s.name + "] " + strings.Join(strings.Fields(q), " ") + "\n")
			b.WriteString(res.Plan)
			if !strings.HasSuffix(res.Plan, "\n") {
				b.WriteByte('\n')
			}
		}
	}
	cat := testCatalog(t)
	for _, c := range differentialCorpus {
		explain(cat, c.q)
	}
	dg := datagenCatalog(t, 7)
	for _, q := range foldShapes {
		explain(dg, q)
	}
	const path = "testdata/plans.golden"
	if *updatePlans {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
