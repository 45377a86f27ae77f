package experiments

import (
	"context"
	"fmt"

	"drugtree/internal/core"
	"drugtree/internal/query"
)

// t3Queries lists join queries written in a deliberately bad
// syntactic order (largest relation first, selective predicate last)
// so the syntactic baseline pays for it while the cost-based
// optimizer recovers.
func t3Queries() []struct {
	name string
	dtql string
} {
	return []struct {
		name string
		dtql string
	}{
		{"3-way, selective protein", `SELECT p.accession, l.weight
			FROM activities a
			JOIN ligands l ON l.ligand_id = a.ligand_id
			JOIN proteins p ON p.accession = a.protein_id
			WHERE p.accession = 'DT00005'`},
		{"4-way, family filter", `SELECT p.accession, n.organism, l.weight
			FROM activities a
			JOIN ligands l ON l.ligand_id = a.ligand_id
			JOIN annotations n ON n.protein_id = a.protein_id
			JOIN proteins p ON p.accession = a.protein_id
			WHERE p.family = 'FAM02'`},
		{"5-way, subtree + family", `SELECT p.accession, n.organism, l.weight, t.pre
			FROM activities a
			JOIN ligands l ON l.ligand_id = a.ligand_id
			JOIN annotations n ON n.protein_id = a.protein_id
			JOIN proteins p ON p.accession = a.protein_id
			JOIN tree_nodes t ON t.name = p.accession
			WHERE p.family = 'FAM03' AND a.affinity >= 6`},
	}
}

// RunT3 compares syntactic join order (pushdown and indexes still on,
// so only the ordering differs) against cost-based ordering.
func RunT3(ctx context.Context, seed int64) (*Report, error) {
	syntacticCfg := core.Config{Method: core.TreeNJKmer}
	syntacticCfg.QueryOptions = query.Options{
		SubtreeRewrite: true, Pushdown: true, UseIndexes: true, JoinReorder: false,
	}
	orderedCfg := core.DefaultConfig()
	orderedCfg.Method = core.TreeNJKmer
	orderedCfg.CacheBytes = 0

	syn, _, err := buildStandardEngine(ctx, seed, 10, 20, 60, syntacticCfg)
	if err != nil {
		return nil, err
	}
	ord, _, err := buildStandardEngine(ctx, seed, 10, 20, 60, orderedCfg)
	if err != nil {
		return nil, err
	}
	const reps = 10
	rep := &Report{
		ID:     "T3",
		Title:  "Join ordering: syntactic vs cost-based (pushdown+indexes on in both)",
		Header: []string{"query", "syntactic", "cost-based", "speedup", "joined rows (syn/cb)"},
	}
	for _, q := range t3Queries() {
		ds, err := MeasureQuery(ctx, syn, q.dtql, reps)
		if err != nil {
			return nil, fmt.Errorf("T3 %s syntactic: %w", q.name, err)
		}
		do, err := MeasureQuery(ctx, ord, q.dtql, reps)
		if err != nil {
			return nil, fmt.Errorf("T3 %s ordered: %w", q.name, err)
		}
		// Row-level work comparison.
		rs, err := syn.QueryColumns(ctx, q.dtql)
		if err != nil {
			return nil, err
		}
		ro, err := ord.QueryColumns(ctx, q.dtql)
		if err != nil {
			return nil, err
		}
		if rs.Batch.Rows != ro.Batch.Rows {
			return nil, fmt.Errorf("T3 %s: engines disagree (%d vs %d rows)", q.name, rs.Batch.Rows, ro.Batch.Rows)
		}
		rep.Rows = append(rep.Rows, []string{
			q.name,
			fmtDur(float64(ds.Nanoseconds()) / 1e3),
			fmtDur(float64(do.Nanoseconds()) / 1e3),
			fmt.Sprintf("%.1fx", float64(ds)/float64(do)),
			fmt.Sprintf("%d/%d", rs.Stats.RowsJoined, ro.Stats.RowsJoined),
		})
	}
	rep.Notes = "expectation: the cost-based order wins more as join width grows; joined-row counts explain the gap"
	return rep, nil
}
