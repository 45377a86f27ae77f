package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"drugtree/internal/integrate"
	"drugtree/internal/phylo"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// quotedNamesEngine builds an engine over a hand-built six-node tree —
// root(clade'x(O'Brien, P1), P2, P3) — whose clade, one protein and one
// ligand carry a single quote in their names.
func quotedNamesEngine(t *testing.T) *Engine {
	t.Helper()
	tree := phylo.NewTree()
	root, _ := tree.AddNode("root", phylo.None, 0)
	clade, _ := tree.AddNode("clade'x", root, 1)
	for _, leaf := range []struct {
		name   string
		parent phylo.NodeID
	}{{"O'Brien", clade}, {"P1", clade}, {"P2", root}, {"P3", root}} {
		if _, err := tree.AddNode(leaf.name, leaf.parent, 1); err != nil {
			t.Fatal(err)
		}
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, f := store.StringValue, store.FloatValue
	tables := []struct {
		name   string
		schema *store.Schema
		rows   []store.Row
	}{
		{integrate.TableProteins, source.ProteinSchema, []store.Row{
			{s("O'Brien"), s("kinase A"), s("FAM00"), s("MKV"), store.IntValue(3)},
			{s("P1"), s("kinase B"), s("FAM00"), s("MKV"), store.IntValue(3)},
			{s("P2"), s("kinase C"), s("FAM01"), s("MKV"), store.IntValue(3)},
			{s("P3"), s("kinase D"), s("FAM01"), s("MKV"), store.IntValue(3)},
		}},
		{integrate.TableAnnotations, source.AnnotationSchema, []store.Row{
			{s("O'Brien"), s("Homo sapiens"), s("2.7.11.1"), s("kinase")},
		}},
		{integrate.TableLigands, source.LigandSchema, []store.Row{
			{s("L'1"), s("ethanol"), s("CCO"), f(46.07), s("C2H6O")},
			{s("L2"), s("benzene"), s("c1ccccc1"), f(78.11), s("C6H6")},
		}},
		{integrate.TableActivities, source.ActivitySchema, []store.Row{
			{s("O'Brien"), s("L'1"), f(7), s("Kd")},
			{s("P1"), s("L'1"), f(5), s("Kd")},
			{s("P2"), s("L2"), f(6), s("Kd")},
		}},
	}
	for _, tab := range tables {
		if _, err := db.CreateTable(tab.name, tab.schema); err != nil {
			t.Fatal(err)
		}
		if err := db.CommitDeltas([]store.TableDelta{{Table: tab.name, Inserts: tab.rows}}); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewWithTree(db, tree, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAnalysesQuoteNames gives a clade, a protein and a ligand names
// with a single quote in them: every analysis that puts a name into a
// DTQL statement must quote it so the statement parses, and answer as
// for any other name.
func TestAnalysesQuoteNames(t *testing.T) {
	e := quotedNamesEngine(t)
	ctx := context.Background()
	t.Run("Breadcrumbs", func(t *testing.T) {
		crumbs, err := e.Breadcrumbs(ctx, "O'Brien")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, c := range crumbs {
			names = append(names, c.Name)
		}
		if want := []string{"root", "clade'x", "O'Brien"}; !reflect.DeepEqual(names, want) {
			t.Fatalf("breadcrumbs %v, want %v", names, want)
		}
	})
	t.Run("SubtreeActivity", func(t *testing.T) {
		sum, err := e.SubtreeActivity(ctx, "clade'x")
		if err != nil {
			t.Fatal(err)
		}
		want := ActivitySummary{Node: "clade'x", Proteins: 2, Activities: 2, MeanAff: 6, MaxAff: 7, DistinctLig: 1}
		if *sum != want {
			t.Fatalf("summary %+v, want %+v", *sum, want)
		}
	})
	t.Run("TopLigands", func(t *testing.T) {
		hits, err := e.TopLigands(ctx, "clade'x", 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := []LigandHit{{LigandID: "L'1", Count: 2, MeanAff: 6, MaxAff: 7}}; !reflect.DeepEqual(hits, want) {
			t.Fatalf("hits %+v, want %+v", hits, want)
		}
	})
	t.Run("FamilyEnrichment", func(t *testing.T) {
		clades, err := e.FamilyEnrichment(ctx, "L'1", 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, c := range clades {
			found = found || c == EnrichedClade{Clade: "clade'x", Leaves: 2, Hits: 2, MeanAff: 6}
		}
		if !found {
			t.Fatalf("clades %+v lack clade'x with both measurements", clades)
		}
	})
	t.Run("ProteinProfile", func(t *testing.T) {
		p, err := e.ProteinProfile(ctx, "O'Brien")
		if err != nil {
			t.Fatal(err)
		}
		want := &ProteinProfile{Accession: "O'Brien", Family: "FAM00", Organism: "Homo sapiens", EC: "2.7.11.1",
			Activities: []LigandHit{{LigandID: "L'1", Count: 1, MeanAff: 7, MaxAff: 7}}}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("profile %+v, want %+v", p, want)
		}
	})
	t.Run("SimilarLigands", func(t *testing.T) {
		// No SMILES holds a quote: the structure must reach the SMILES
		// parser intact and be rejected there, not break the statement.
		_, err := e.SimilarLigands(ctx, "C'C", 5, 0)
		if err == nil || !strings.Contains(err.Error(), "TANIMOTO reference") {
			t.Fatalf("err = %v, want the SMILES parser's rejection of the TANIMOTO reference", err)
		}
	})
}
