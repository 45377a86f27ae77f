package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// queryGen generates random well-formed DTQL over the test catalog
// schema. It is the workhorse of TestFuzzNaiveOptimizedEquivalence:
// any query it emits must produce the reference executor's result
// multiset under the naive and fully optimized engines.
type queryGen struct {
	rng *rand.Rand
	// strLits overrides the string literal pool (the differential
	// harness points it at the datagen catalog's ID universe).
	strLits []string
	// nodes overrides the tree-node name pool WITHIN_SUBTREE draws from.
	nodes []string
}

// node draws a tree-node name: clades of several sizes and a leaf, so
// subtree predicates land on both sides of the union/scan crossover.
func (g *queryGen) node() string {
	pool := []string{"root", "FAM0", "FAM1", "P001"}
	if g.nodes != nil {
		pool = g.nodes
	}
	return pool[g.rng.Intn(len(pool))]
}

// column universe of the test catalog, per table.
var fuzzTables = map[string][]struct {
	name string
	kind string // "int", "float", "string", "bool"
}{
	"proteins": {
		{"accession", "string"}, {"family", "string"}, {"length", "int"},
	},
	"activities": {
		{"protein_id", "string"}, {"ligand_id", "string"}, {"affinity", "float"},
	},
	"ligands": {
		{"ligand_id", "string"}, {"weight", "float"},
	},
	"tree_nodes": {
		{"pre", "int"}, {"name", "string"}, {"is_leaf", "bool"},
	},
}

func (g *queryGen) literal(kind string) string {
	switch kind {
	case "int":
		return fmt.Sprint(g.rng.Intn(200))
	case "float":
		return fmt.Sprintf("%.1f", g.rng.Float64()*10)
	case "string":
		opts := []string{"'FAM0'", "'FAM1'", "'FAM2'", "'P001'", "'P010'", "'L03'", "'zzz'"}
		if g.strLits != nil {
			opts = g.strLits
		}
		return opts[g.rng.Intn(len(opts))]
	case "bool":
		if g.rng.Intn(2) == 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "0"
}

func (g *queryGen) predicate(alias, table string, depth int) string {
	cols := fuzzTables[table]
	c := cols[g.rng.Intn(len(cols))]
	ref := alias + "." + c.name
	if depth > 0 && g.rng.Float64() < 0.4 {
		op := "AND"
		if g.rng.Intn(2) == 0 {
			op = "OR"
		}
		l := g.predicate(alias, table, depth-1)
		r := g.predicate(alias, table, depth-1)
		s := fmt.Sprintf("(%s %s %s)", l, op, r)
		if g.rng.Float64() < 0.2 {
			s = "NOT " + s
		}
		return s
	}
	switch c.kind {
	case "bool":
		return fmt.Sprintf("%s = %s", ref, g.literal("bool"))
	case "string":
		switch g.rng.Intn(6) {
		case 5:
			return fmt.Sprintf("WITHIN_SUBTREE(%s, '%s')", ref, g.node())
		case 0:
			return fmt.Sprintf("%s = %s", ref, g.literal("string"))
		case 1:
			return fmt.Sprintf("%s != %s", ref, g.literal("string"))
		case 2:
			return fmt.Sprintf("%s LIKE 'P0%%'", ref)
		case 3:
			// Uncorrelated IN-subquery over a compatible ID domain.
			subs := []string{
				"SELECT protein_id FROM activities WHERE affinity > 5",
				"SELECT accession FROM proteins WHERE length < 140",
				"SELECT ligand_id FROM ligands WHERE weight > 120",
			}
			return fmt.Sprintf("%s IN (%s)", ref, subs[g.rng.Intn(len(subs))])
		default:
			return fmt.Sprintf("%s IN (%s, %s)", ref, g.literal("string"), g.literal("string"))
		}
	default:
		if c.name == "pre" && g.rng.Intn(4) == 0 {
			return fmt.Sprintf("WITHIN_SUBTREE(%s, '%s')", ref, g.node())
		}
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		op := ops[g.rng.Intn(len(ops))]
		if g.rng.Float64() < 0.25 {
			lo := g.literal(c.kind)
			hi := g.literal(c.kind)
			return fmt.Sprintf("%s BETWEEN %s AND %s", ref, lo, hi)
		}
		return fmt.Sprintf("%s %s %s", ref, op, g.literal(c.kind))
	}
}

// generateAggregate emits the benchmark's grouped shapes (ligand_rank,
// family_agg): GROUP BY one column of activities, alone or joined to
// proteins, under random predicates, optionally ranked and cut. The
// aggregates are exact ones (COUNT, MAX): float sums depend on scan
// order. A ranked query leads with COUNT(*), its sort key.
func (g *queryGen) generateAggregate() (string, bool) {
	from, groups := "activities a", []string{"a.ligand_id", "a.protein_id"}
	preds := []string{}
	if g.rng.Intn(2) == 0 {
		from = "proteins p JOIN activities a ON p.accession = a.protein_id"
		groups = append(groups, "p.family")
		if g.rng.Intn(2) == 0 {
			preds = append(preds, g.predicate("p", "proteins", 1))
		}
	}
	if g.rng.Intn(3) > 0 {
		preds = append(preds, g.predicate("a", "activities", 1))
	}
	where := ""
	if len(preds) > 0 {
		where = " WHERE " + strings.Join(preds, " AND ")
	}
	group := groups[g.rng.Intn(len(groups))]
	if g.rng.Intn(2) == 0 {
		return fmt.Sprintf("SELECT %s, COUNT(*), MAX(a.affinity) FROM %s%s GROUP BY %s", group, from, where, group), false
	}
	return fmt.Sprintf("SELECT COUNT(*), %s FROM %s%s GROUP BY %s ORDER BY COUNT(*) DESC LIMIT %d",
		group, from, where, group, 1+g.rng.Intn(12)), true
}

// generate emits one random query (and whether it is order-sensitive).
func (g *queryGen) generate() (string, bool) {
	if g.rng.Intn(6) == 0 {
		return g.generateAggregate()
	}
	type rel struct{ table, alias string }
	shapes := [][]rel{
		{{"proteins", "p"}},
		{{"activities", "a"}},
		{{"tree_nodes", "t"}},
		{{"proteins", "p"}, {"activities", "a"}},
		{{"proteins", "p"}, {"activities", "a"}, {"ligands", "l"}},
		{{"tree_nodes", "t"}, {"activities", "a"}},
	}
	joinConds := map[string]string{
		"p/a": "p.accession = a.protein_id",
		"a/l": "a.ligand_id = l.ligand_id",
		"t/a": "t.name = a.protein_id",
	}
	shape := shapes[g.rng.Intn(len(shapes))]

	var b strings.Builder
	b.WriteString("SELECT ")
	// Select one or two concrete columns from the participating
	// relations (no * to keep column sets stable across join orders).
	var selCols []string
	for _, r := range shape {
		cols := fuzzTables[r.table]
		c := cols[g.rng.Intn(len(cols))]
		selCols = append(selCols, r.alias+"."+c.name)
	}
	b.WriteString(strings.Join(selCols, ", "))
	b.WriteString(" FROM " + shape[0].table + " " + shape[0].alias)
	for i := 1; i < len(shape); i++ {
		key := shape[i-1].alias + "/" + shape[i].alias
		cond, ok := joinConds[key]
		if !ok {
			cond = joinConds[shape[i].alias+"/"+shape[i-1].alias]
		}
		fmt.Fprintf(&b, " JOIN %s %s ON %s", shape[i].table, shape[i].alias, cond)
	}
	if g.rng.Float64() < 0.8 {
		var preds []string
		for _, r := range shape {
			if g.rng.Float64() < 0.7 {
				preds = append(preds, g.predicate(r.alias, r.table, 1))
			}
		}
		if len(preds) > 0 {
			b.WriteString(" WHERE " + strings.Join(preds, " AND "))
		}
	}
	ordered := false
	if g.rng.Float64() < 0.3 {
		// Order by the first selected column with LIMIT; ties make
		// exact row-order comparison unsound, so the caller treats
		// ordered queries as multisets too and only checks the sort
		// key column sequence.
		fmt.Fprintf(&b, " ORDER BY %s", selCols[0])
		if g.rng.Intn(2) == 0 {
			b.WriteString(" DESC")
		}
		fmt.Fprintf(&b, " LIMIT %d", 1+g.rng.Intn(20))
		ordered = true
	}
	return b.String(), ordered
}

func TestFuzzNaiveOptimizedEquivalence(t *testing.T) {
	cat := testCatalog(t)
	g := &queryGen{rng: rand.New(rand.NewSource(2024))}
	const trials = 300
	for i := 0; i < trials; i++ {
		q, ordered := g.generate()
		runDifferential(t, cat, q, ordered)
	}
}

func TestFuzzGeneratedQueriesParse(t *testing.T) {
	g := &queryGen{rng: rand.New(rand.NewSource(7))}
	for i := 0; i < 200; i++ {
		q, _ := g.generate()
		if _, err := Parse(q); err != nil {
			t.Fatalf("generated query does not parse: %s: %v", q, err)
		}
	}
}
