package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"drugtree/internal/phylo"
)

// opKind is what one slot asks of the system.
type opKind uint8

const (
	opOpen   opKind = iota // mobile Open frame: navigate to a node
	opQuery                // mobile Query frame: one DTQL statement
	opCommit               // store.DB.CommitDeltas on activities (no frame)
)

// op is one slot of a workload's op list. The list is generated from
// the seed before any timing and replayed unchanged in every round.
type op struct {
	Kind  opKind
	Class string // label for per-class layer metrics; "" when unused
	Text  string // node name (Open) or DTQL (Query)
	Rows  int    // opCommit: rows deleted and rows inserted
}

// encodeOps renders the list canonically, for the determinism test.
func encodeOps(ops []op) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, byte(o.Kind))
		b = binary.AppendUvarint(b, uint64(len(o.Class)))
		b = append(b, o.Class...)
		b = binary.AppendUvarint(b, uint64(len(o.Text)))
		b = append(b, o.Text...)
		b = binary.AppendUvarint(b, uint64(o.Rows))
	}
	return b
}

// Seed-to-seed steadiness. The driver compares runs made with
// different seeds, so a metric may not depend on which seed drew the
// lucky clades. Every parameter is therefore drawn stratified: the
// candidates (clades sorted by size, a threshold interval) are cut
// into as many equal bins as draws are needed, the seed picks inside
// each bin, and the seed shuffles the order. Each seed then sees the
// same distribution of work and a different instance of it.

// internalBySize lists the internal nodes whose leaf count lies in
// [lo, hi], ordered by leaf count, ties by the clade's first leaf name.
// core.New reads proteins in map order, so two builds of one dataset
// number (and name) the same clades differently; ordering by leaf
// names keeps a seed's draws on the same clades regardless.
func internalBySize(t *phylo.Tree, lo, hi int) []phylo.NodeID {
	var out []phylo.NodeID
	firstLeaf := map[phylo.NodeID]string{}
	for p := 0; p < t.Len(); p++ {
		id := t.NodeAtPre(p)
		if n := t.LeafCount(id); t.Node(id).IsLeaf() || n < lo || n > hi {
			continue
		}
		out = append(out, id)
		from, to := t.SubtreeInterval(id)
		for q := from; q <= to; q++ {
			if n := t.Node(t.NodeAtPre(q)); n.IsLeaf() && (firstLeaf[id] == "" || n.Name < firstLeaf[id]) {
				firstLeaf[id] = n.Name
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := t.LeafCount(out[i]), t.LeafCount(out[j]); a != b {
			return a < b
		}
		return firstLeaf[out[i]] < firstLeaf[out[j]]
	})
	return out
}

// stratifiedNodes draws n nodes, one per equal-width bin of cands, in
// shuffled order. With fewer candidates than draws the bins wrap.
func stratifiedNodes(rng *rand.Rand, cands []phylo.NodeID, n int) []phylo.NodeID {
	out := make([]phylo.NodeID, n)
	for i := range out {
		lo, hi := i*len(cands)/n, (i+1)*len(cands)/n
		if hi <= lo {
			hi = lo + 1
		}
		out[i] = cands[(lo+rng.Intn(hi-lo))%len(cands)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stratifiedFloats draws n values, one per equal-width bin of
// [lo, hi), in shuffled order.
func stratifiedFloats(rng *rand.Rand, lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (float64(i)+rng.Float64())/float64(n)*(hi-lo)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stratifiedClades draws the names of n internal nodes of lo..hi
// leaves, stratified by size.
func stratifiedClades(t *phylo.Tree, rng *rand.Rand, lo, hi, n int) ([]string, error) {
	cands := internalBySize(t, lo, hi)
	if len(cands) == 0 {
		return nil, fmt.Errorf("tree has no clade of %d–%d leaves", lo, hi)
	}
	out := make([]string, n)
	for i, id := range stratifiedNodes(rng, cands, n) {
		out[i] = t.Node(id).Name
	}
	return out, nil
}

// genOps builds the workload's op list.
func genOps(fx *fixture, seed int64, sz sizing) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	switch fx.workload {
	case wlBrowse:
		return genBrowseOps(fx.eng.Tree(), rng, sz)
	case wlAnalytics, wlSharded:
		// `sharded` replays the identical statement list, so the two
		// workloads compare slot by slot.
		return genQueryOps(fx, rng, sz.queryBlocks)
	case wlIngest:
		return genIngestOps(fx, rng, sz.ingestCycles)
	}
	return nil, fmt.Errorf("unknown workload %q", fx.workload)
}

// Browse regions. A session enters the larger child R of a clade P and
// walks inside R. Entering R makes the prefetcher fetch R's sibling and
// parent, so P — not R — bounds the rows one session pulls and is what
// the semantic cache ends up holding. The P's are the maximal clades of
// at most regionMaxLeaves leaves (their parents exceed it), so they are
// disjoint: no session is answered from an earlier session's entry, and
// a Yule tree's occasional lopsided split cannot charge one seed a
// 50k-leaf parent fetch. At 73 encoded bytes a row the regions a round
// visits hold more than the 8 MiB cache, so eviction runs.
const (
	regionMinLeaves = 256
	regionMaxLeaves = 1024
	// viewportLeaves is the smallest clade the walk opens: 64 leaves
	// are 127 nodes, so every viewport fills the 100-node budget and a
	// delta's size depends on the move, not on how deep the walk
	// happened to drift.
	viewportLeaves = 64
)

// browseRegions lists the region parents, ordered by leaf count.
func browseRegions(t *phylo.Tree) []phylo.NodeID {
	var out []phylo.NodeID
	for _, id := range internalBySize(t, regionMinLeaves, regionMaxLeaves) {
		if parent := t.Node(id).Parent; parent != phylo.None && t.LeafCount(parent) > regionMaxLeaves {
			out = append(out, id)
		}
	}
	return out
}

// genBrowseOps emits sessions × steps Open ops. Inside a region the
// walk uses experiment F2's navigation mix (experiments.GenerateTrace:
// 60 % zoom, 25 % pan, 10 % pop, 5 % jump) bounded to the region's
// clades of at least viewportLeaves leaves: a smaller clade ends a
// drill-down as a leaf does in F2, and a pan or pop at the region root
// becomes a jump.
func genBrowseOps(t *phylo.Tree, rng *rand.Rand, sz sizing) ([]op, error) {
	parents := browseRegions(t)
	if len(parents) < sz.browseSessions {
		return nil, fmt.Errorf("tree has %d disjoint clades of %d–%d leaves, need %d", len(parents), regionMinLeaves, regionMaxLeaves, sz.browseSessions)
	}
	wide := func(ids []phylo.NodeID) []phylo.NodeID {
		var out []phylo.NodeID
		for _, id := range ids {
			if t.LeafCount(id) >= viewportLeaves {
				out = append(out, id)
			}
		}
		return out
	}
	var ops []op
	for _, p := range stratifiedNodes(rng, parents, sz.browseSessions) {
		region := t.Node(p).Children[0]
		for _, c := range t.Node(p).Children {
			if t.LeafCount(c) > t.LeafCount(region) {
				region = c
			}
		}
		lo, hi := t.SubtreeInterval(region)
		var members []phylo.NodeID
		for pre := lo; pre <= hi; pre++ {
			members = append(members, t.NodeAtPre(pre))
		}
		members = wide(members)
		cur := region
		for s := 0; s < browseSteps; s++ {
			ops = append(ops, op{Kind: opOpen, Text: t.Node(cur).Name})
			node := t.Node(cur)
			children := wide(node.Children)
			r := rng.Float64()
			switch {
			case r < 0.60 && len(children) > 0:
				best := children[0]
				for _, c := range children {
					if t.LeafCount(c) > t.LeafCount(best) && rng.Float64() < 0.7 {
						best = c
					}
				}
				if rng.Float64() < 0.3 {
					best = children[rng.Intn(len(children))]
				}
				cur = best
			case r < 0.85 && cur != region:
				siblings := wide(t.Node(node.Parent).Children)
				cur = siblings[rng.Intn(len(siblings))]
			case r < 0.95 && cur != region:
				cur = node.Parent
			default:
				cur = members[rng.Intn(len(members))]
			}
		}
	}
	return ops, nil
}

// Statement parameter ranges. Affinity thresholds are drawn as
// quantiles of the dataset's own affinities — the upper fifth, so an
// index range scan selects ≈ 9k of 48k rows at the low end and ≈ 1.4k
// at the high end whatever the seed's affinity distribution looks
// like; clades of 30–120 leaves are the family-sized subtrees a
// dashboard panel shows.
const (
	thresholdLoQ   = 0.81
	thresholdHiQ   = 0.97
	panelMinLeaves = 30
	panelMaxLeaves = 120
	// pageRows caps the two row-returning joins: a phone pages through
	// a result, it does not pull 5 000 rows, and an uncapped result's
	// size (50 % apart between two draws of clade and threshold) would
	// make wire_bytes_per_op a property of the seed.
	pageRows       = 100
	blockSlots     = 24 // 6 classes × (3 distinct + 1 dashboard)
	dashboardStmts = 2  // per class; 12 in all
)

// affinityThresholds draws n thresholds at stratified quantiles of the
// dataset's affinities between loQ and hiQ.
func affinityThresholds(fx *fixture, rng *rand.Rand, loQ, hiQ float64, n int) []float64 {
	sorted := make([]float64, len(fx.ds.Activities))
	for i, a := range fx.ds.Activities {
		sorted[i] = a.Affinity
	}
	sort.Float64s(sorted)
	out := stratifiedFloats(rng, loQ, hiQ, n)
	for i, q := range out {
		out[i] = sorted[int(q*float64(len(sorted)-1))]
	}
	return out
}

// families lists the dataset's family labels in sorted order.
func families(fx *fixture) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range fx.ds.Proteins {
		if !seen[p.Family] {
			seen[p.Family] = true
			out = append(out, p.Family)
		}
	}
	sort.Strings(out)
	return out
}

// classStatements builds n statements of one class from stratified
// parameters.
func classStatements(fx *fixture, rng *rand.Rand, class string, n int) ([]string, error) {
	t := fx.eng.Tree()
	lo, hi := panelMinLeaves, panelMaxLeaves
	if class == "overlay_agg" {
		// Any clade, from a cherry to the root: the overlay answers
		// all of them in O(1).
		lo, hi = 2, t.Len()
	}
	clades, err := stratifiedClades(t, rng, lo, hi, n)
	if err != nil {
		return nil, err
	}
	th := affinityThresholds(fx, rng, thresholdLoQ, thresholdHiQ, n)
	fams := families(fx)
	rng.Shuffle(len(fams), func(i, j int) { fams[i], fams[j] = fams[j], fams[i] })
	// A clade ligand_rank draws twice gets a longer LIMIT, so the
	// statement text — the statement-cache key — stays distinct.
	used := map[string]int{}
	out := make([]string, n)
	for i := range out {
		switch class {
		case "overlay_agg":
			out[i] = fmt.Sprintf("SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", clades[i])
		case "subtree_join":
			out[i] = fmt.Sprintf("SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(p.accession, '%s') AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", clades[i], th[i], pageRows)
		case "topk":
			out[i] = fmt.Sprintf("SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= %.3f ORDER BY affinity DESC LIMIT 20", th[i])
		case "integration3":
			out[i] = fmt.Sprintf("SELECT p.accession, n.organism, l.weight, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id JOIN ligands l ON a.ligand_id = l.ligand_id JOIN annotations n ON p.accession = n.protein_id WHERE p.family = '%s' AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT %d", fams[i%len(fams)], th[i], pageRows)
		case "ligand_rank":
			out[i] = fmt.Sprintf("SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') GROUP BY ligand_id ORDER BY AVG(affinity) DESC LIMIT %d", clades[i], 10+used[clades[i]])
			used[clades[i]]++
		case "family_agg":
			out[i] = fmt.Sprintf("SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity >= %.3f GROUP BY p.family", th[i])
		}
	}
	return out, nil
}

// genQueryOps emits blocks × 24 Query ops: the six classes in
// rotation, and in every block of four statements per class three are
// distinct (statement-cache misses) and one comes from the class's two
// dashboard statements (a hit after its first appearance in a round,
// which also exercises Result.Clone).
func genQueryOps(fx *fixture, rng *rand.Rand, blocks int) ([]op, error) {
	distinct := make([][]string, len(queryClasses))
	for c, class := range queryClasses {
		var err error
		if distinct[c], err = classStatements(fx, rng, class, blocks*3+dashboardStmts); err != nil {
			return nil, err
		}
	}
	ops := make([]op, 0, blocks*blockSlots)
	for b := 0; b < blocks; b++ {
		for j := 0; j < 4; j++ {
			for c, class := range queryClasses {
				text := distinct[c][b%dashboardStmts]
				if j < 3 {
					text = distinct[c][dashboardStmts+b*3+j]
				}
				ops = append(ops, op{Kind: opQuery, Class: class, Text: text})
			}
		}
	}
	return ops, nil
}

// ingestCommitRows is the size of one activities delta: that many
// seeded deletes and as many inserts, so the row count stays constant
// and the state is stationary across rounds.
const ingestCommitRows = 512

// ingestCycleSlots is the length of one ingest cycle.
const ingestCycleSlots = 7

// genIngestOps emits cycles × 7 slots: a commit on activities, then
// five cheap reads and an Open. The two overlay aggregates and the
// top-k scan read activities, so the commit invalidates them; the
// proteins and tree_nodes statements rotate over four texts each and
// must stay statement-cache hits under per-table version keys.
func genIngestOps(fx *fixture, rng *rand.Rand, cycles int) ([]op, error) {
	t := fx.eng.Tree()
	clades, err := stratifiedClades(t, rng, 2, t.Len(), 2*cycles)
	if err != nil {
		return nil, err
	}
	opens, err := stratifiedClades(t, rng, 8, 100, cycles)
	if err != nil {
		return nil, err
	}
	tops := affinityThresholds(fx, rng, 0.96, 0.99, cycles)
	ops := make([]op, 0, cycles*ingestCycleSlots)
	for i := 0; i < cycles; i++ {
		ops = append(ops,
			op{Kind: opCommit, Class: "commit", Rows: ingestCommitRows},
			op{Kind: opQuery, Class: "overlay_agg", Text: fmt.Sprintf("SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", clades[2*i])},
			op{Kind: opQuery, Class: "overlay_agg", Text: fmt.Sprintf("SELECT COUNT(*), SUM(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", clades[2*i+1])},
			op{Kind: opQuery, Class: "topk", Text: fmt.Sprintf("SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= %.3f ORDER BY affinity DESC LIMIT 10", tops[i])},
			op{Kind: opQuery, Class: "unaffected", Text: fmt.Sprintf("SELECT family, COUNT(*), AVG(length) FROM proteins WHERE length >= %d GROUP BY family", 1+i%4)},
			op{Kind: opQuery, Class: "unaffected", Text: fmt.Sprintf("SELECT depth, COUNT(*) FROM tree_nodes WHERE depth <= %d GROUP BY depth", 4+2*(i%4))},
			op{Kind: opOpen, Text: opens[i]},
		)
	}
	return ops, nil
}
