// Package shard partitions a DrugTree database across N in-process
// shard instances — each owning its own in-memory store, secondary
// indexes, query engine, and admission limiter — and serves DTQL
// through a coordinator that plans once, fans subplans out over the
// shards' batch executors, and merges the gathered results (partial
// re-aggregation for GROUP BY, top-k merge for ORDER BY/LIMIT, full
// gather as the correctness fallback). The shards are copies: the
// durable store they were cut from stays the only one with a WAL, and
// Partition rebuilds them from it.
//
// Placement follows the phylogeny, the axis the paper's workload
// navigates: tree_nodes is range-partitioned on the preorder number
// (each shard owns a contiguous subtree interval), and proteins,
// activities, and annotations follow their protein's leaf through a
// shared name→shard directory, so protein–activity joins and
// tree–activity joins are co-partitioned and execute shard-locally.
// Small reference tables (ligands, annotations-free lookups) are
// replicated to every shard.
package shard

import (
	"fmt"

	"drugtree/internal/admission"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// Partitioner maps a partition-key value to a shard index. Two table
// columns are co-partitioned exactly when their specs reference the
// same Partitioner instance: equality of values then implies equality
// of shard, which is what makes a distributed equi-join shard-local.
type Partitioner interface {
	// Route returns the shard owning rows whose key equals v.
	Route(v store.Value) int
	// RouteRange returns the shards that may own keys in [lo, hi]
	// (nil bounds are open). Partitioners without range structure
	// return every shard.
	RouteRange(lo, hi *store.Value) []int
	// Shards returns the shard count.
	Shards() int
}

// rangePartitioner assigns contiguous integer intervals: shard i owns
// keys in [starts[i], starts[i+1]). starts[0] is the global minimum;
// a key exactly on a boundary belongs to the shard whose interval it
// starts (the boundary tests pin this).
type rangePartitioner struct {
	starts []int64
}

func (r *rangePartitioner) Shards() int { return len(r.starts) }

func (r *rangePartitioner) Route(v store.Value) int {
	if v.K != store.KindInt {
		return 0
	}
	for i := len(r.starts) - 1; i >= 0; i-- {
		if v.I >= r.starts[i] {
			return i
		}
	}
	return 0
}

func (r *rangePartitioner) RouteRange(lo, hi *store.Value) []int {
	first, last := 0, len(r.starts)-1
	if lo != nil && lo.K == store.KindInt {
		first = r.Route(*lo)
	}
	if hi != nil && hi.K == store.KindInt {
		last = r.Route(*hi)
	}
	if first > last {
		return nil
	}
	out := make([]int, 0, last-first+1)
	for i := first; i <= last; i++ {
		out = append(out, i)
	}
	return out
}

// dirPartitioner routes string keys through an explicit directory
// (protein accession / tree-node name → owning shard), falling back
// to a value hash for keys outside the directory so unknown keys
// still route consistently across all tables sharing the instance.
type dirPartitioner struct {
	dir map[string]int
	n   int
}

func (d *dirPartitioner) Shards() int { return d.n }

func (d *dirPartitioner) Route(v store.Value) int {
	if v.K == store.KindString {
		if s, ok := d.dir[v.S]; ok {
			return s
		}
	}
	return int(v.Hash() % uint64(d.n))
}

func (d *dirPartitioner) RouteRange(lo, hi *store.Value) []int {
	out := make([]int, d.n)
	for i := range out {
		out[i] = i
	}
	return out
}

// partKey is one partition key of a table: routing uses the first
// key; additional keys are co-partitioning claims that must agree
// with the first for every row (verified at partition time).
type partKey struct {
	column string
	part   Partitioner
}

// tableSpec is a table's partitioning: nil keys means replicated.
type tableSpec struct {
	keys []partKey
}

// Options configures Partition.
type Options struct {
	// Shards is the partition count; values below 2 are rejected
	// (0/1 is the single-node path and never reaches this package).
	Shards int
	// QueryOptions configures each shard's DTQL engine.
	QueryOptions query.Options
	// Admission, when set, gives every shard its own limiter with
	// this configuration, so one overloaded partition sheds without
	// dragging its siblings down.
	Admission *admission.Config
	// Cuts overrides the preorder interval boundaries (len must be
	// Shards-1, strictly increasing). Tests use it to force skew:
	// empty shards, or every row on one shard.
	Cuts []int64
}

// Partition splits src across opts.Shards in-memory shard stores and
// returns the coordinator serving them. The source database is read,
// never mutated; the sharded topology is a point-in-time partitioning
// of it, matching the engine's build-then-serve lifecycle.
func Partition(src *store.DB, tree *phylo.Tree, opts Options) (*Coordinator, error) {
	n := opts.Shards
	if n < 2 {
		return nil, fmt.Errorf("shard: need at least 2 shards, got %d", n)
	}
	if tree == nil || !tree.Indexed() {
		return nil, fmt.Errorf("shard: partitioning requires an indexed tree")
	}
	starts, err := preCuts(tree.Len(), n, opts.Cuts)
	if err != nil {
		return nil, err
	}
	rangePart := &rangePartitioner{starts: starts}

	// The directory maps every uniquely named tree node to the shard
	// owning its preorder number; proteins and activities follow
	// their leaf. When all names are unique the tree's name column
	// is itself a sound partition key (t.name = a.protein_id joins
	// run shard-local); duplicate or empty names void that claim.
	dir := make(map[string]int, tree.Len())
	namesUnique := true
	for i := 0; i < tree.Len(); i++ {
		id := phylo.NodeID(i)
		name := tree.Node(id).Name
		if name == "" {
			namesUnique = false
			continue
		}
		if _, dup := dir[name]; dup {
			namesUnique = false
			continue
		}
		dir[name] = rangePart.Route(store.IntValue(int64(tree.Pre(id))))
	}
	dirPart := &dirPartitioner{dir: dir, n: n}

	specs := make(map[string]tableSpec)
	for _, name := range src.TableNames() {
		switch name {
		case "proteins":
			specs[name] = tableSpec{keys: []partKey{{"accession", dirPart}}}
		case "activities", "annotations":
			specs[name] = tableSpec{keys: []partKey{{"protein_id", dirPart}}}
		case "tree_nodes":
			keys := []partKey{{"pre", rangePart}}
			if namesUnique {
				keys = append(keys, partKey{"name", dirPart})
			}
			specs[name] = tableSpec{keys: keys}
		}
	}

	c := &Coordinator{tree: tree, opts: opts, specs: specs}
	for i := 0; i < n; i++ {
		db, err := store.Open("")
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s := &Shard{id: i, db: db}
		s.engine = query.NewEngine(query.NewDBCatalog(db, tree), opts.QueryOptions)
		if opts.Admission != nil {
			ac := *opts.Admission
			if ac.Name == "" {
				ac.Name = fmt.Sprintf("shard-%d", i)
			} else {
				ac.Name = fmt.Sprintf("%s-shard-%d", ac.Name, i)
			}
			s.limiter = admission.NewLimiter(ac)
		}
		c.shards = append(c.shards, s)
	}
	if err := c.populate(src); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// preCuts computes the shards' preorder interval starts: even splits
// of [0, total) by default, or the explicit cut overrides.
func preCuts(total, n int, cuts []int64) ([]int64, error) {
	starts := make([]int64, n)
	if cuts == nil {
		for i := 1; i < n; i++ {
			starts[i] = int64(i * total / n)
		}
		return starts, nil
	}
	if len(cuts) != n-1 {
		return nil, fmt.Errorf("shard: %d cuts for %d shards, want %d", len(cuts), n, n-1)
	}
	prev := int64(0)
	for i, cut := range cuts {
		if cut <= prev {
			return nil, fmt.Errorf("shard: cuts must be positive and strictly increasing")
		}
		starts[i+1] = cut
		prev = cut
	}
	return starts, nil
}

// populate copies src's tables into the shard stores: partitioned
// tables route each row by the first key (verifying that any
// additional co-partitioning keys agree), replicated tables are
// copied to every shard.
func (c *Coordinator) populate(src *store.DB) error {
	for _, name := range src.TableNames() {
		srcTab, err := src.Table(name)
		if err != nil {
			return err
		}
		schema := srcTab.Schema()
		spec := c.specs[name]
		var keyIdx []int
		for _, k := range spec.keys {
			ci := schema.ColumnIndex(k.column)
			if ci < 0 {
				return fmt.Errorf("shard: table %s lacks partition column %q", name, k.column)
			}
			keyIdx = append(keyIdx, ci)
		}
		// One batch per shard: a table lands on a shard as one commit. A
		// replicated table goes whole to every shard.
		rows := srcTab.Snapshot()
		staged := make([][]store.Row, len(c.shards))
		if len(spec.keys) == 0 {
			for i := range staged {
				staged[i] = rows
			}
		} else {
			for _, r := range rows {
				owner := spec.keys[0].part.Route(r[keyIdx[0]])
				for k := 1; k < len(spec.keys); k++ {
					if alt := spec.keys[k].part.Route(r[keyIdx[k]]); alt != owner {
						return fmt.Errorf("shard: table %s row routes to shard %d by %s but %d by %s",
							name, owner, spec.keys[0].column, alt, spec.keys[k].column)
					}
				}
				staged[owner] = append(staged[owner], r)
			}
		}
		tabs := make([]*store.Table, len(c.shards))
		for i, s := range c.shards {
			tab, err := s.db.CreateTable(name, schema)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if err := s.db.CommitDeltas([]store.TableDelta{{Table: name, Inserts: staged[i]}}); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			tabs[i] = tab
		}
		for i, tab := range tabs {
			for _, ix := range srcTab.Indexes() {
				if err := tab.CreateIndex(ix.Column, ix.Type); err != nil {
					return fmt.Errorf("shard %d: index %s.%s: %w", i, name, ix.Column, err)
				}
			}
		}
	}
	return nil
}
