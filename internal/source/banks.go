package source

import (
	"drugtree/internal/datagen"
	"drugtree/internal/netsim"
	"drugtree/internal/store"
)

// Schemas of the four simulated services. Exported so the integration
// layer and tests can reference column positions by name.
var (
	ProteinSchema = store.MustSchema(
		store.Column{Name: "accession", Kind: store.KindString},
		store.Column{Name: "name", Kind: store.KindString},
		store.Column{Name: "family", Kind: store.KindString},
		store.Column{Name: "sequence", Kind: store.KindString},
		store.Column{Name: "length", Kind: store.KindInt},
	)
	LigandSchema = store.MustSchema(
		store.Column{Name: "ligand_id", Kind: store.KindString},
		store.Column{Name: "name", Kind: store.KindString},
		store.Column{Name: "smiles", Kind: store.KindString},
		store.Column{Name: "weight", Kind: store.KindFloat},
		store.Column{Name: "formula", Kind: store.KindString},
	)
	ActivitySchema = store.MustSchema(
		store.Column{Name: "protein_id", Kind: store.KindString},
		store.Column{Name: "ligand_id", Kind: store.KindString},
		store.Column{Name: "affinity", Kind: store.KindFloat},
		store.Column{Name: "assay", Kind: store.KindString},
	)
	AnnotationSchema = store.MustSchema(
		store.Column{Name: "protein_id", Kind: store.KindString},
		store.Column{Name: "organism", Kind: store.KindString},
		store.Column{Name: "ec", Kind: store.KindString},
		store.Column{Name: "keywords", Kind: store.KindString},
	)
)

// defaultPageSize matches typical REST service paging.
const defaultPageSize = 100

// NewProteinBank serves the dataset's proteins. Server-side filtering:
// accession=, family=, length ranges.
func NewProteinBank(ds *datagen.Dataset, link *netsim.Link) Source {
	ps := ds.Proteins
	b := newBank("ProteinBank", ProteinSchema, link, len(ps), func(i int, r store.Row) {
		p := ps[i]
		r[0], r[1], r[2] = store.StringValue(p.ID), store.StringValue(p.Name), store.StringValue(p.Family)
		r[3], r[4] = store.StringValue(p.Residues), store.IntValue(int64(len(p.Residues)))
	})
	b.allow("accession", OpEQ)
	b.allow("family", OpEQ)
	b.allow("length", OpEQ, OpLT, OpLE, OpGT, OpGE)
	return b
}

// NewLigandBank serves the dataset's ligands. Server-side filtering:
// ligand_id=, weight ranges.
func NewLigandBank(ds *datagen.Dataset, link *netsim.Link) Source {
	ls := ds.Ligands
	b := newBank("LigandBank", LigandSchema, link, len(ls), func(i int, r store.Row) {
		l := &ls[i]
		r[0], r[1], r[2] = store.StringValue(l.ID), store.StringValue(l.Name), store.StringValue(l.SMILES)
		r[3], r[4] = store.FloatValue(l.Weight), store.StringValue(l.Formula)
	})
	b.allow("ligand_id", OpEQ)
	b.allow("weight", OpLT, OpLE, OpGT, OpGE)
	return b
}

// NewActivityBank serves binding activities. Server-side filtering:
// protein_id=, ligand_id=, affinity ranges.
func NewActivityBank(ds *datagen.Dataset, link *netsim.Link) Source {
	as := ds.Activities
	b := newBank("ActivityBank", ActivitySchema, link, len(as), func(i int, r store.Row) {
		a := &as[i]
		r[0], r[1] = store.StringValue(a.ProteinID), store.StringValue(a.LigandID)
		r[2], r[3] = store.FloatValue(a.Affinity), store.StringValue(a.Assay)
	})
	b.allow("protein_id", OpEQ)
	b.allow("ligand_id", OpEQ)
	b.allow("affinity", OpLT, OpLE, OpGT, OpGE)
	return b
}

// NewAnnotationBank serves protein annotations. Server-side filtering:
// protein_id=, organism=. Note: no keyword filtering — queries on
// keywords must fetch-and-filter, exercising the "cannot push" path.
func NewAnnotationBank(ds *datagen.Dataset, link *netsim.Link) Source {
	ns := ds.Annotations
	b := newBank("AnnotationBank", AnnotationSchema, link, len(ns), func(i int, r store.Row) {
		n := &ns[i]
		r[0], r[1] = store.StringValue(n.ProteinID), store.StringValue(n.Organism)
		r[2], r[3] = store.StringValue(n.EC), store.StringValue(n.Keywords)
	})
	b.allow("protein_id", OpEQ)
	b.allow("organism", OpEQ)
	return b
}

// Bundle groups the four sources over one dataset, each on its own
// link (mirroring four independent services).
type Bundle struct {
	Proteins    Source
	Ligands     Source
	Activities  Source
	Annotations Source
}

// NewBundle creates all four sources over the dataset. Each source
// gets an independent link with the given profile; seeds are derived
// so runs are reproducible. simulated selects virtual-clock links.
//
// The sources keep no copy of the data: they read the dataset's records
// in place on every fetch, so nothing may change the records or their
// slices after NewBundle. Nothing does (the dirty-sources example edits
// its records before).
func NewBundle(ds *datagen.Dataset, profile netsim.Profile, seed int64, simulated bool) *Bundle {
	return &Bundle{
		Proteins:    NewProteinBank(ds, netsim.NewLink(profile, seed+1, simulated)),
		Ligands:     NewLigandBank(ds, netsim.NewLink(profile, seed+2, simulated)),
		Activities:  NewActivityBank(ds, netsim.NewLink(profile, seed+3, simulated)),
		Annotations: NewAnnotationBank(ds, netsim.NewLink(profile, seed+4, simulated)),
	}
}

// All returns the sources in a fixed order.
func (b *Bundle) All() []Source {
	return []Source{b.Proteins, b.Ligands, b.Activities, b.Annotations}
}

// TotalStats sums traffic over all sources in the bundle.
func (b *Bundle) TotalStats() Stats {
	var t Stats
	for _, s := range b.All() {
		st := s.Stats()
		t.Requests += st.Requests
		t.RowsMoved += st.RowsMoved
		t.BytesUp += st.BytesUp
		t.BytesDown += st.BytesDown
		t.Failures += st.Failures
		t.Elapsed += st.Elapsed
	}
	return t
}

// ResetStats zeroes every source's counters.
func (b *Bundle) ResetStats() {
	for _, s := range b.All() {
		s.ResetStats()
	}
}
