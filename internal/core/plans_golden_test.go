package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/analytics_plans.golden from the current planner")

// cladesBySize lists the internal nodes of lo..hi leaves ordered by leaf
// count, ties by the clade's smallest leaf name — the order the
// repository benchmark draws its panel clades from.
func cladesBySize(t *phylo.Tree, lo, hi int) []string {
	type clade struct {
		name, first string
		leaves      int
	}
	var out []clade
	for id := phylo.NodeID(0); int(id) < t.Len(); id++ {
		n := t.LeafCount(id)
		if t.Node(id).IsLeaf() || n < lo || n > hi {
			continue
		}
		c := clade{name: t.Node(id).Name, leaves: n}
		from, to := t.SubtreeInterval(id)
		for q := from; q <= to; q++ {
			if m := t.Node(phylo.NodeID(q)); m.IsLeaf() && (c.first == "" || m.Name < c.first) {
				c.first = m.Name
			}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].leaves != out[j].leaves {
			return out[i].leaves < out[j].leaves
		}
		return out[i].first < out[j].first
	})
	names := make([]string, len(out))
	for i, c := range out {
		names[i] = c.name
	}
	return names
}

// spread picks three entries of xs: the first, the middle and the last.
func spread[T any](xs []T) [3]T {
	return [3]T{xs[0], xs[len(xs)/2], xs[len(xs)-1]}
}

// analyticsStmt is one statement of the analytics workload: its class
// and parameter draw, and its text.
type analyticsStmt struct {
	class string
	draw  int
	text  string
}

// analyticsStatements writes the repository benchmark's six analytics
// statement classes (texts as bench/oplist.go's classStatements writes
// them) at three parameter draws each — the smallest, middle and
// largest panel clade, the 0.81, 0.89 and 0.97 affinity quantiles and
// the first, middle and last family — for an engine built over
// smokeD1.
func analyticsStatements(tb testing.TB, e *Engine) []analyticsStmt {
	tb.Helper()
	ds, err := datagen.Generate(smokeD1())
	if err != nil {
		tb.Fatal(err)
	}
	tree := e.Tree()
	panel := spread(cladesBySize(tree, 30, 120))
	anyClade := spread(cladesBySize(tree, 2, tree.Len()))
	affinities := make([]float64, len(ds.Activities))
	for i, a := range ds.Activities {
		affinities[i] = a.Affinity
	}
	sort.Float64s(affinities)
	var th [3]float64
	for i, q := range []float64{0.81, 0.89, 0.97} {
		th[i] = affinities[int(q*float64(len(affinities)-1))]
	}
	seen := map[string]bool{}
	var fams []string
	for _, p := range ds.Proteins {
		if !seen[p.Family] {
			seen[p.Family] = true
			fams = append(fams, p.Family)
		}
	}
	sort.Strings(fams)
	fam := spread(fams)

	const pageRows = 100
	classes := []struct {
		name string
		stmt func(i int) string
	}{
		{"overlay_agg", func(i int) string {
			return fmt.Sprintf("SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", anyClade[i])
		}},
		{"subtree_join", func(i int) string {
			return fmt.Sprintf("SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(p.accession, '%s') AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", panel[i], th[i], pageRows)
		}},
		{"topk", func(i int) string {
			return fmt.Sprintf("SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= %.3f ORDER BY affinity DESC LIMIT 20", th[i])
		}},
		{"integration3", func(i int) string {
			return fmt.Sprintf("SELECT p.accession, n.organism, l.weight, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id JOIN ligands l ON a.ligand_id = l.ligand_id JOIN annotations n ON p.accession = n.protein_id WHERE p.family = '%s' AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", fam[i], th[i], pageRows)
		}},
		{"ligand_rank", func(i int) string {
			return fmt.Sprintf("SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') GROUP BY ligand_id ORDER BY AVG(affinity) DESC LIMIT %d", panel[i], 10)
		}},
		{"family_agg", func(i int) string {
			return fmt.Sprintf("SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity >= %.3f GROUP BY p.family", th[i])
		}},
	}
	var out []analyticsStmt
	for _, c := range classes {
		for i := range 3 {
			out = append(out, analyticsStmt{c.name, i, c.stmt(i)})
		}
	}
	return out
}

// TestAnalyticsPlansGolden pins the plans the analytics workload is
// served: EXPLAIN of analyticsStatements over the smoke-sized D1 the
// repository benchmark builds, with the importer's indexes. Rewrite
// testdata/analytics_plans.golden only for an intended plan change,
// with `go test ./internal/core -run TestAnalyticsPlansGolden
// -update-plans`.
func TestAnalyticsPlansGolden(t *testing.T) {
	e, _ := buildEngineFrom(t, smokeD1(), DefaultConfig())
	var b strings.Builder
	for _, s := range analyticsStatements(t, e) {
		res, err := e.Query(context.Background(), "EXPLAIN "+s.text)
		if err != nil {
			t.Fatalf("%s: EXPLAIN %q: %v", s.class, s.text, err)
		}
		fmt.Fprintf(&b, "> [%s %d] %s\n%s", s.class, s.draw, s.text, res.Plan)
		if !strings.HasSuffix(res.Plan, "\n") {
			b.WriteByte('\n')
		}
	}
	const path = "testdata/analytics_plans.golden"
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
		t.Fatalf("analytics plans differ from %s (rerun with -update-plans only for an intended change):\n%s", path, got)
	}
}

// BenchmarkServedPlan times served-path planning: BuildLogical and
// Optimize, the two calls the repository benchmark's query.plan span
// times, over the engine's own catalog (the live overlay attached, as
// served) warmed by serving each of analyticsStatements once. One op
// plans one statement, the 18 in turn; parsing is outside the timer.
func BenchmarkServedPlan(b *testing.B) {
	e, _ := buildEngineFrom(b, smokeD1(), DefaultConfig())
	var stmts []*query.SelectStmt
	for _, s := range analyticsStatements(b, e) {
		if _, err := e.Query(context.Background(), s.text); err != nil {
			b.Fatalf("%s: %q: %v", s.class, s.text, err)
		}
		stmt, err := query.Parse(s.text)
		if err != nil {
			b.Fatal(err)
		}
		stmts = append(stmts, stmt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logical, err := query.BuildLogical(stmts[i%len(stmts)], e.catalog)
		if err == nil {
			_, err = query.Optimize(logical, e.catalog, e.cfg.QueryOptions)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubtreeAccess serves the six subtree_join and ligand_rank
// statements of analyticsStatements, one a op in turn, through
// QueryColumns (parse, plan and run; DefaultConfig keeps no statement
// cache): the clade reads a WITHIN_SUBTREE on a protein name drives.
func BenchmarkSubtreeAccess(b *testing.B) {
	e, _ := buildEngineFrom(b, smokeD1(), DefaultConfig())
	var texts []string
	for _, s := range analyticsStatements(b, e) {
		if s.class == "subtree_join" || s.class == "ligand_rank" {
			texts = append(texts, s.text)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryColumns(ctx, texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticsClasses serves each analytics statement class — its
// three statements of analyticsStatements, one a op in turn — through
// QueryColumns (parse, plan and run; DefaultConfig keeps no statement
// cache), one sub-benchmark a class: the served path's cost by class,
// in time and allocations.
func BenchmarkAnalyticsClasses(b *testing.B) {
	e, _ := buildEngineFrom(b, smokeD1(), DefaultConfig())
	var classes []string
	texts := map[string][]string{}
	for _, s := range analyticsStatements(b, e) {
		if texts[s.class] == nil {
			classes = append(classes, s.class)
		}
		texts[s.class] = append(texts[s.class], s.text)
	}
	ctx := context.Background()
	for _, class := range classes {
		b.Run(class, func(b *testing.B) {
			ts := texts[class]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.QueryColumns(ctx, ts[i%len(ts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
