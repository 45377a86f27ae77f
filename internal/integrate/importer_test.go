package integrate

import (
	"context"
	"fmt"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

func importedDB(t *testing.T) (*store.DB, *ImportStats) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NumFamilies = 2
	cfg.ProteinsPerFamily = 8
	cfg.NumLigands = 10
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 3, true)
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewImporter(db, bundle).ImportAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return db, st
}

func TestImportAllMaterializesTables(t *testing.T) {
	db, st := importedDB(t)
	defer db.Close()
	for _, name := range []string{TableProteins, TableLigands, TableActivities, TableAnnotations} {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatalf("missing table %s: %v", name, err)
		}
		if tb.Len() == 0 {
			t.Fatalf("table %s is empty", name)
		}
	}
	if st.RowsImported == 0 || st.RowsRejected != 0 {
		t.Fatalf("unexpected import stats: %+v", st)
	}
	// All clean references resolve at the exact tier.
	if st.ResolvedNorm != 0 || st.ResolvedFuzzy != 0 {
		t.Fatalf("clean data used non-exact tiers: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Fatalf("no network time charged: %+v", st)
	}
}

func TestImportCreatesIndexes(t *testing.T) {
	db, _ := importedDB(t)
	defer db.Close()
	tb, _ := db.Table(TableProteins)
	if _, ok := tb.HasIndex("accession"); !ok {
		t.Fatal("accession index missing")
	}
	if typ, ok := tb.HasIndex("length"); !ok || typ != store.IndexBTree {
		t.Fatal("length btree index missing")
	}
	act, _ := db.Table(TableActivities)
	if _, ok := act.HasIndex("affinity"); !ok {
		t.Fatal("affinity index missing")
	}
}

func TestImportResolvesForeignKeys(t *testing.T) {
	db, _ := importedDB(t)
	defer db.Close()
	prot, _ := db.Table(TableProteins)
	accIdx := source.ProteinSchema.ColumnIndex("accession")
	valid := map[string]bool{}
	prot.Scan(func(_ int64, r store.Row) bool {
		valid[r[accIdx].S] = true
		return true
	})
	act, _ := db.Table(TableActivities)
	pIdx := source.ActivitySchema.ColumnIndex("protein_id")
	act.Scan(func(_ int64, r store.Row) bool {
		if !valid[r[pIdx].S] {
			t.Errorf("activity references unknown protein %q", r[pIdx].S)
			return false
		}
		return true
	})
}

func TestImportIdempotentTables(t *testing.T) {
	// ImportAll is a sync into whatever the store holds: a second run
	// over unchanged sources changes no row count and no table version,
	// and reports the same rows served.
	cfg := datagen.DefaultConfig()
	cfg.NumFamilies = 1
	cfg.ProteinsPerFamily = 4
	cfg.NumLigands = 5
	ds, _ := datagen.Generate(cfg)
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 3, true)
	db, _ := store.Open("")
	defer db.Close()
	im := NewImporter(db, bundle)
	first, err := im.ImportAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lens, versions := tableLens(t, db), tableVersions(db)
	second, err := im.ImportAll(context.Background())
	if err != nil {
		t.Fatalf("second import failed: %v", err)
	}
	if lens["proteins"] != 4 || fmt.Sprint(tableLens(t, db)) != fmt.Sprint(lens) {
		t.Fatalf("row counts %v after one import, %v after two (want 4 proteins, unchanged)", lens, tableLens(t, db))
	}
	if fmt.Sprint(tableVersions(db)) != fmt.Sprint(versions) {
		t.Fatalf("table versions moved on an unchanged re-import: %v → %v", versions, tableVersions(db))
	}
	if second.RowsImported != first.RowsImported || second.ResolvedExact != first.ResolvedExact {
		t.Fatalf("second import reports %+v, first %+v", second, first)
	}
}

func tableLens(t *testing.T, db *store.DB) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, name := range db.TableNames() {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tb.Len()
	}
	return out
}

func tableVersions(db *store.DB) map[string]int64 {
	snap := db.PinSnapshot()
	defer snap.Release()
	return snap.Versions()
}

// TestImportAllThenSyncIsEmpty pins the two paths to one notion of
// "up to date": a Sync after an ImportAll of the same sources stages an
// empty delta and moves no table version.
func TestImportAllThenSyncIsEmpty(t *testing.T) {
	im, _, _ := syncFixture(t, true)
	ctx := context.Background()
	if _, err := im.ImportAll(ctx); err != nil {
		t.Fatal(err)
	}
	if h := im.Health(); len(h) != 0 {
		t.Fatalf("ImportAll recorded source health %v: only Sync tracks freshness", h)
	}
	versions := tableVersions(im.DB)
	rep, err := im.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsInserted != 0 || rep.RowsDeleted != 0 || rep.Fresh != 4 {
		t.Fatalf("Sync after ImportAll: +%d −%d rows, %d fresh sources", rep.RowsInserted, rep.RowsDeleted, rep.Fresh)
	}
	if fmt.Sprint(tableVersions(im.DB)) != fmt.Sprint(versions) {
		t.Fatalf("table versions moved: %v → %v", versions, tableVersions(im.DB))
	}
}

// TestImportAllKeepsSourceOrderAndDenseIDs holds ImportAll into an empty
// store to what the per-row import it replaced produced: each table's
// rows in the order the source served them, under IDs 0, 1, 2, … — the
// repository benchmark's plan texts and output checks were recorded
// against that layout.
func TestImportAllKeepsSourceOrderAndDenseIDs(t *testing.T) {
	im, bundle, _ := syncFixture(t, false)
	ctx := context.Background()
	if _, err := im.ImportAll(ctx); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{TableProteins, TableLigands, TableActivities, TableAnnotations} {
		// The fixture's identifiers are clean, so reference resolution
		// leaves the fetched rows as they are.
		want, err := source.FetchAll(ctx, bundle.All()[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		tb, _ := im.DB.Table(name)
		next := int64(0)
		tb.Scan(func(id int64, r store.Row) bool {
			if id != next || int(next) >= len(want) || fmt.Sprint(r) != fmt.Sprint(want[next]) {
				t.Errorf("%s: scan position %d holds id %d, row %v", name, next, id, r)
				return false
			}
			next++
			return true
		})
		if int(next) != len(want) {
			t.Errorf("%s: %d rows scanned, source served %d", name, next, len(want))
		}
		if tb.Version() != 1 {
			t.Errorf("%s: version %d after one import, want one commit", name, tb.Version())
		}
	}
}

// TestImportAllLogsOneBatch counts the records an ImportAll leaves in
// the log: a create-table record per relation and one batch record for
// the whole import, nothing else. Every commit is one batch record
// (store's TestWALHoldsOnlyCreateTableAndBatchRecords), so the WAL
// sequence alone tells them apart.
func TestImportAllLogsOneBatch(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NumFamilies, cfg.ProteinsPerFamily, cfg.NumLigands = 2, 4, 5
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := NewImporter(db, source.NewBundle(ds, netsim.ProfileLAN, 3, true)).ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	tables := len(db.TableNames())
	if tables != 4 {
		t.Fatalf("ImportAll created %d tables, want 4", tables)
	}
	if got := db.WALSeq(); got != int64(tables)+1 {
		t.Fatalf("the log holds %d records, want %d create-table records and 1 batch", got, tables)
	}
}
