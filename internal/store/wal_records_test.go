package store

import (
	"path/filepath"
	"strings"
	"testing"

	"drugtree/internal/vfs"
)

// TestWALHoldsOnlyCreateTableAndBatchRecords drives every public
// mutation — Insert, Delete, a replace, a multi-table CommitDeltas — and
// reads the log back: each is one batch record, beside one create-table
// record per table. It then appends a CRC-valid record of each retired
// single-row kind and demands that Open refuses the log with a wrapped
// "unknown WAL record type" instead of guessing at its meaning.
func TestWALHoldsOnlyCreateTableAndBatchRecords(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	schema := MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "v", Kind: KindString})
	for _, name := range []string{"a", "b"} {
		if _, err := db.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	var ids []int64
	for i := 0; i < 3; i++ {
		id, err := db.Insert("a", Row{IntValue(int64(i)), StringValue("v")})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if ok, err := db.Delete("a", ids[0]); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if ok, err := db.Delete("a", ids[0]); ok || err != nil {
		t.Fatalf("Delete of a deleted row = %v, %v: want a clean miss that logs nothing", ok, err)
	}
	if err := replaceRow(db, "a", ids[1], Row{IntValue(1), StringValue("replaced")}); err != nil {
		t.Fatal(err)
	}
	err = db.CommitDeltas([]TableDelta{
		{Table: "a", DeleteIDs: []int64{ids[2]}, Inserts: []Row{{IntValue(7), StringValue("x")}}},
		{Table: "b", Inserts: []Row{{IntValue(8), StringValue("y")}, {IntValue(9), StringValue("z")}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	for _, body := range walBodies(t, db) {
		kinds[body[0]]++
	}
	// 3 inserts + 1 delete + 1 replace + 1 two-table commit.
	if len(kinds) != 2 || kinds[walCreateTable] != 2 || kinds[walBatch] != 6 {
		t.Fatalf("record kinds in the log = %v, want 2 create-table (%d) and 6 batch (%d)", kinds, walCreateTable, walBatch)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, retired := range []byte{2, 3} {
		dir := t.TempDir()
		walFixture(t, dir, 2) // create-table + 2 inserts: seq 3
		w, err := openWAL(vfs.OS(), filepath.Join(dir, "wal.dtl"), Options{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		w.seq = 3
		// The body the retired kind carried: table name, then one row.
		body := appendString([]byte{retired}, "t")
		body = AppendRow(body, Row{IntValue(1), StringValue("value-0001")})
		if err := w.writeRecord(body); err != nil {
			t.Fatal(err)
		}
		if err := w.CloseSync(true); err != nil {
			t.Fatal(err)
		}
		if err := VerifyDir(nil, dir); err != nil {
			t.Fatalf("the crafted record of kind %d is not CRC-valid: %v", retired, err)
		}
		db, err := Open(dir)
		if err == nil {
			db.Close()
			t.Fatalf("Open accepted a log holding a record of retired kind %d", retired)
		}
		if !strings.Contains(err.Error(), "store: replaying WAL: unknown WAL record type") {
			t.Fatalf("Open on retired kind %d: %v, want a wrapped unknown-record-type error", retired, err)
		}
	}
}

// TestWALSeqMonotonic pins the sequencing contract: every mutation
// advances WALSeq by one, a checkpoint preserves the counter (the WAL
// truncates but seq is for the database's lifetime), and a reopen
// restores it from the snapshot trailer plus surviving WAL records.
func TestWALSeqMonotonic(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "v", Kind: KindString})
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	insert := func(db *DB, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := db.Insert("t", Row{IntValue(int64(i)), StringValue("v")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := db.WALSeq(); got != 1 { // the create-table record
		t.Fatalf("WALSeq after create = %d, want 1", got)
	}
	insert(db, 5)
	if got := db.WALSeq(); got != 6 {
		t.Fatalf("WALSeq after 5 inserts = %d, want 6", got)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.WALSeq(); got != 6 {
		t.Fatalf("WALSeq after checkpoint = %d, want 6 (checkpoint must not reset seq)", got)
	}
	insert(db, 2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.WALSeq(); got != 8 {
		t.Fatalf("WALSeq after reopen = %d, want 8", got)
	}
	insert(db2, 1)
	if got := db2.WALSeq(); got != 9 {
		t.Fatalf("WALSeq after post-reopen insert = %d, want 9", got)
	}
}
