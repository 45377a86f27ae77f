package integrate

import (
	"context"
	"sync"
	"time"

	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// TableNames of the integrated relations in the local store.
const (
	TableProteins    = "proteins"
	TableLigands     = "ligands"
	TableActivities  = "activities"
	TableAnnotations = "annotations"
)

// ImportStats reports what one sync moved and fixed.
type ImportStats struct {
	RowsImported  int64
	RowsRejected  int64 // unresolvable entity references
	ResolvedExact int64
	ResolvedNorm  int64
	ResolvedFuzzy int64
	Elapsed       time.Duration // modelled network time
}

// Importer synchronizes the remote bundle into a local store DB.
// ImportAll is the strict one-shot load (any source failure is an
// error); Sync is the repeatable resilient path with degraded-mode
// serving and per-source freshness tracking. Both stage and publish
// through syncTables (sync.go), so both have replace semantics: a second
// run over unchanged sources changes nothing.
type Importer struct {
	DB     *store.DB
	Bundle *source.Bundle

	res      *Resilience
	breakers map[string]*source.Breaker
	clock    netsim.Clock

	mu     sync.Mutex
	health map[string]*SourceHealth
}

// NewImporter wires an importer. The DB may be empty or already hold
// the integrated tables from a previous run.
func NewImporter(db *store.DB, bundle *source.Bundle) *Importer {
	return &Importer{
		DB:     db,
		Bundle: bundle,
		clock:  netsim.NewWallClock(),
		health: make(map[string]*SourceHealth),
	}
}

// ensureTable creates the table with indexes if missing.
func (im *Importer) ensureTable(name string, schema *store.Schema, indexes map[string]store.IndexType) (*store.Table, error) {
	t, err := im.DB.Table(name)
	if err != nil {
		t, err = im.DB.CreateTable(name, schema)
		if err != nil {
			return nil, err
		}
	}
	for col, typ := range indexes {
		if err := t.CreateIndex(col, typ); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// tableSpec describes one integrated relation: the source its rows come
// from, the local table's layout, the entity-ID column other relations
// resolve against, and its own reference columns.
type tableSpec struct {
	table   string
	source  func(*source.Bundle) source.Source
	schema  *store.Schema
	indexes map[string]store.IndexType
	// key names the entity-ID column references to this table resolve
	// against; "" when nothing references it.
	key string
	// refs lists the columns holding another table's entity ID, each
	// rewritten to its canonical form or, unresolvable, rejecting the row.
	refs []tableRef
}

type tableRef struct{ column, table string }

// tableSpecs lists the integrated relations, a table ahead of those that
// reference it.
var tableSpecs = []tableSpec{
	{
		table:  TableProteins,
		source: func(b *source.Bundle) source.Source { return b.Proteins },
		schema: source.ProteinSchema,
		indexes: map[string]store.IndexType{
			"accession": store.IndexHash,
			"family":    store.IndexHash,
			"length":    store.IndexBTree,
		},
		key: "accession",
	},
	{
		table:  TableLigands,
		source: func(b *source.Bundle) source.Source { return b.Ligands },
		schema: source.LigandSchema,
		indexes: map[string]store.IndexType{
			"ligand_id": store.IndexHash,
			"weight":    store.IndexBTree,
		},
		key: "ligand_id",
	},
	{
		table:  TableActivities,
		source: func(b *source.Bundle) source.Source { return b.Activities },
		schema: source.ActivitySchema,
		indexes: map[string]store.IndexType{
			"protein_id": store.IndexHash,
			"ligand_id":  store.IndexHash,
			"affinity":   store.IndexBTree,
		},
		refs: []tableRef{{"protein_id", TableProteins}, {"ligand_id", TableLigands}},
	},
	{
		table:  TableAnnotations,
		source: func(b *source.Bundle) source.Source { return b.Annotations },
		schema: source.AnnotationSchema,
		indexes: map[string]store.IndexType{
			"protein_id": store.IndexHash,
			"organism":   store.IndexHash,
		},
		refs: []tableRef{{"protein_id", TableProteins}},
	},
}

// ImportAll pulls every source into the local store, resolving
// activity and annotation references against the imported protein and
// ligand IDs. Rows whose references cannot be resolved are counted
// and dropped, not guessed. It is a sync into whatever the store holds
// — an empty store is filled in source order, a filled one is brought
// up to date — that fails, publishing nothing, if any source does.
func (im *Importer) ImportAll(ctx context.Context) (*ImportStats, error) {
	outs, err := im.syncTables(ctx, false)
	if err != nil {
		return nil, err
	}
	st := &ImportStats{Elapsed: im.Bundle.TotalStats().Elapsed}
	for _, o := range outs {
		st.RowsImported += o.served
		st.RowsRejected += o.rejected
		st.ResolvedExact += o.tiers[TierExact]
		st.ResolvedNorm += o.tiers[TierNormalized]
		st.ResolvedFuzzy += o.tiers[TierFuzzy]
	}
	return st, nil
}
