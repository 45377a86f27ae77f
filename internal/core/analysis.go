package core

import (
	"context"
	"fmt"

	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// cell reads cell i of column c of a result's batch, a coded name
// decoded through the result's dictionary.
func cell(res *query.Result, c, i int) store.Value {
	return res.Dict.Value(&res.Batch.Cols[c], i)
}

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
	if res.Batch.Rows == 1 {
		out.Activities = cell(res, 0, 0).I
		if mean := cell(res, 1, 0); !mean.IsNull() {
			out.MeanAff = mean.F
		}
		if best := cell(res, 2, 0); !best.IsNull() {
			out.MaxAff = best.AsFloat()
		}
		out.DistinctLig = cell(res, 3, 0).I
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
	for i := range res.Batch.Rows {
		hit := LigandHit{LigandID: cell(res, 0, i).S, Count: cell(res, 1, i).I}
		if mean := cell(res, 2, i); !mean.IsNull() {
			hit.MeanAff = mean.F
		}
		if best := cell(res, 3, i); !best.IsNull() {
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
	out := &ProteinProfile{Accession: cell(res, 0, 0).S, Family: cell(res, 1, 0).S, Organism: cell(res, 2, 0).S, EC: cell(res, 3, 0).S}
	res2, err := e.QueryColumns(ctx, fmt.Sprintf(
		`SELECT a.ligand_id, a.affinity FROM activities a
		 WHERE a.protein_id = %s ORDER BY a.affinity DESC`, query.Quote(accession)))
	if err != nil {
		return nil, err
	}
	for i := range res2.Batch.Rows {
		out.Activities = append(out.Activities, LigandHit{
			LigandID: cell(res2, 0, i).S, Count: 1, MeanAff: cell(res2, 1, i).F, MaxAff: cell(res2, 1, i).F,
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
	for i := range res.Batch.Rows {
		out = append(out, SimilarLigand{
			LigandID:   cell(res, 0, i).S,
			SMILES:     cell(res, 1, i).S,
			Similarity: cell(res, 2, i).F,
		})
	}
	return out, nil
}

// EnrichedClade is one clade FamilyEnrichment ranks: its name, its
// leaf count, the ligand's activity rows under it and their mean
// affinity.
type EnrichedClade struct {
	Clade   string
	Leaves  int64
	Hits    int64
	MeanAff float64
}

// FamilyEnrichment finds the clades most enriched for strong binders
// of one ligand: for each internal node at most maxDepth deep, in
// preorder, the mean affinity of the ligand across its subtree leaves.
// It returns the clades the ligand has activity under, strongest first
// (ties in preorder), cut to topK when topK > 0.
func (e *Engine) FamilyEnrichment(ctx context.Context, ligandID string, maxDepth, topK int) ([]EnrichedClade, error) {
	var out []EnrichedClade
	for id := range phylo.NodeID(e.tree.Len()) {
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
		if res.Batch.Rows != 1 || cell(res, 0, 0).I == 0 {
			continue
		}
		out = append(out, EnrichedClade{
			Clade:   n.Name,
			Leaves:  int64(e.tree.LeafCount(id)),
			Hits:    cell(res, 0, 0).I,
			MeanAff: cell(res, 1, 0).F,
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
