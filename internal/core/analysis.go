package core

import (
	"context"
	"fmt"

	"drugtree/internal/query"
)

// ActivitySummary aggregates the binding activity measured beneath
// one tree node — the core DrugTree overlay: ligand data summarized
// along the phylogeny.
type ActivitySummary struct {
	Node        string
	Proteins    int64 // leaves in the subtree
	Activities  int64 // measurements over those leaves
	MeanAff     float64
	MaxAff      float64
	DistinctLig int64
}

// SubtreeActivity computes the activity summary under the named node
// through the DTQL engine (exercising the subtree rewrite + joins).
func (e *Engine) SubtreeActivity(ctx context.Context, nodeName string) (*ActivitySummary, error) {
	id, err := e.NodeByName(nodeName)
	if err != nil {
		return nil, err
	}
	// Integration rejects an activity without a ligand, so COUNT(DISTINCT)
	// skipping NULLs counts every ligand measured under the node.
	res, err := e.QueryColumns(ctx, fmt.Sprintf(
		`SELECT COUNT(*) AS n, AVG(a.affinity) AS mean_aff, MAX(a.affinity) AS max_aff,
		        COUNT(DISTINCT a.ligand_id) AS ligands
		 FROM tree_nodes t
		 JOIN activities a ON t.name = a.protein_id
		 WHERE WITHIN_SUBTREE(t.pre, %s) AND t.is_leaf = TRUE`, query.Quote(nodeName)))
	if err != nil {
		return nil, err
	}
	out := &ActivitySummary{Node: nodeName, Proteins: int64(e.tree.LeafCount(id))}
	if c := res.Batch.Cols; res.Batch.Rows == 1 {
		out.Activities = c[0].Value(0).I
		if mean := c[1].Value(0); !mean.IsNull() {
			out.MeanAff = mean.F
		}
		if best := c[2].Value(0); !best.IsNull() {
			out.MaxAff = best.AsFloat()
		}
		out.DistinctLig = c[3].Value(0).I
	}
	return out, nil
}

// LigandHit is one row of a top-ligand ranking.
type LigandHit struct {
	LigandID string
	Count    int64
	MeanAff  float64
	MaxAff   float64
}

// TopLigands ranks ligands by mean affinity across the subtree's
// proteins, strongest first, requiring at least minMeasurements.
func (e *Engine) TopLigands(ctx context.Context, nodeName string, k, minMeasurements int) ([]LigandHit, error) {
	if _, err := e.NodeByName(nodeName); err != nil {
		return nil, err
	}
	res, err := e.QueryColumns(ctx, fmt.Sprintf(
		`SELECT a.ligand_id AS lig, COUNT(*) AS n, AVG(a.affinity) AS mean_aff, MAX(a.affinity) AS max_aff
		 FROM tree_nodes t
		 JOIN activities a ON t.name = a.protein_id
		 WHERE WITHIN_SUBTREE(t.pre, %s) AND t.is_leaf = TRUE
		 GROUP BY a.ligand_id
		 ORDER BY mean_aff DESC`, query.Quote(nodeName)))
	if err != nil {
		return nil, err
	}
	var out []LigandHit
	for i, c := 0, res.Batch.Cols; i < res.Batch.Rows; i++ {
		hit := LigandHit{LigandID: c[0].Value(i).S, Count: c[1].Value(i).I}
		if mean := c[2].Value(i); !mean.IsNull() {
			hit.MeanAff = mean.F
		}
		if best := c[3].Value(i); !best.IsNull() {
			hit.MaxAff = best.AsFloat()
		}
		if hit.Count < int64(minMeasurements) {
			continue
		}
		out = append(out, hit)
		if k > 0 && len(out) >= k {
			break
		}
	}
	return out, nil
}

// ProteinProfile joins one protein's integrated records: annotation
// plus its activity list.
type ProteinProfile struct {
	Accession  string
	Family     string
	Organism   string
	EC         string
	Activities []LigandHit
}

// ProteinProfile gathers the cross-source profile of one protein (the
// three-source integration query class).
func (e *Engine) ProteinProfile(ctx context.Context, accession string) (*ProteinProfile, error) {
	res, err := e.QueryColumns(ctx, fmt.Sprintf(
		`SELECT p.accession, p.family, n.organism, n.ec
		 FROM proteins p JOIN annotations n ON p.accession = n.protein_id
		 WHERE p.accession = %s`, query.Quote(accession)))
	if err != nil {
		return nil, err
	}
	if res.Batch.Rows == 0 {
		return nil, fmt.Errorf("core: no protein %q", accession)
	}
	c := res.Batch.Cols
	out := &ProteinProfile{Accession: c[0].Value(0).S, Family: c[1].Value(0).S, Organism: c[2].Value(0).S, EC: c[3].Value(0).S}
	res2, err := e.QueryColumns(ctx, fmt.Sprintf(
		`SELECT a.ligand_id, a.affinity FROM activities a
		 WHERE a.protein_id = %s ORDER BY a.affinity DESC`, query.Quote(accession)))
	if err != nil {
		return nil, err
	}
	for i, c := 0, res2.Batch.Cols; i < res2.Batch.Rows; i++ {
		out.Activities = append(out.Activities, LigandHit{
			LigandID: c[0].Value(i).S, Count: 1, MeanAff: c[1].Value(i).F, MaxAff: c[1].Value(i).F,
		})
	}
	return out, nil
}

// SimilarLigand is one hit of a chemical similarity search.
type SimilarLigand struct {
	LigandID   string
	SMILES     string
	Similarity float64
}

// SimilarLigands ranks the ligand table by Tanimoto similarity to a
// query structure, strongest first, returning up to k hits with
// similarity ≥ threshold. It runs through DTQL so the TANIMOTO
// operator, top-k execution, and caching all apply.
func (e *Engine) SimilarLigands(ctx context.Context, smiles string, k int, threshold float64) ([]SimilarLigand, error) {
	if k <= 0 {
		k = 10
	}
	res, err := e.QueryColumns(ctx, fmt.Sprintf(
		`SELECT ligand_id, smiles, TANIMOTO(smiles, %s) AS sim
		 FROM ligands
		 WHERE TANIMOTO(smiles, %s) >= %g
		 ORDER BY sim DESC LIMIT %d`, query.Quote(smiles), query.Quote(smiles), threshold, k))
	if err != nil {
		return nil, err
	}
	out := make([]SimilarLigand, 0, res.Batch.Rows)
	for i, c := 0, res.Batch.Cols; i < res.Batch.Rows; i++ {
		out = append(out, SimilarLigand{
			LigandID:   c[0].Value(i).S,
			SMILES:     c[1].Value(i).S,
			Similarity: c[2].Value(i).F,
		})
	}
	return out, nil
}

// FamilyEnrichment finds the clades most enriched for strong binders
// of one ligand: for each internal node at most maxDepth deep, the
// mean affinity of the ligand across its subtree leaves.
type EnrichedClade struct {
	Clade   string
	Leaves  int64
	Hits    int64
	MeanAff float64
}

// FamilyEnrichment ranks clades by mean affinity for the ligand.
func (e *Engine) FamilyEnrichment(ctx context.Context, ligandID string, maxDepth, topK int) ([]EnrichedClade, error) {
	var out []EnrichedClade
	for i := 0; i < e.tree.Len(); i++ {
		id := e.tree.NodeAtPre(i)
		n := e.tree.Node(id)
		if n.IsLeaf() || e.tree.Depth(id) > maxDepth {
			continue
		}
		res, err := e.QueryColumns(ctx, fmt.Sprintf(
			`SELECT COUNT(*) AS n, AVG(a.affinity) AS mean_aff
			 FROM tree_nodes t JOIN activities a ON t.name = a.protein_id
			 WHERE WITHIN_SUBTREE(t.pre, %s) AND t.is_leaf = TRUE AND a.ligand_id = %s`,
			query.Quote(n.Name), query.Quote(ligandID)))
		if err != nil {
			return nil, err
		}
		c := res.Batch.Cols
		if res.Batch.Rows != 1 || c[0].Value(0).I == 0 {
			continue
		}
		out = append(out, EnrichedClade{
			Clade:   n.Name,
			Leaves:  int64(e.tree.LeafCount(id)),
			Hits:    c[0].Value(0).I,
			MeanAff: c[1].Value(0).F,
		})
	}
	// Sort by mean affinity, strongest first (insertion sort; clade
	// lists are small).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].MeanAff > out[j-1].MeanAff; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}
