package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestInMemoryDB(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := MustSchema(Column{"id", KindInt}, Column{"name", KindString})
	if _, err := db.CreateTable("t", s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", s); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := db.Insert("t", Row{IntValue(1), StringValue("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("missing", Row{}); err == nil {
		t.Fatal("insert into missing table accepted")
	}
	tb, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	// Checkpoint on an in-memory DB is a no-op.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := MustSchema(Column{"id", KindInt}, Column{"name", KindString})
	if _, err := db.CreateTable("prot", s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Insert("prot", Row{IntValue(int64(i)), StringValue(fmt.Sprintf("P%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": close without checkpoint.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tb, err := db2.Table("prot")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 50 {
		t.Fatalf("replayed %d rows, want 50", tb.Len())
	}
	named := 0
	for _, r := range readRows(t, tb, Access{}) {
		if r[1].S == "P7" {
			named++
		}
	}
	if named != 1 {
		t.Fatalf("%d rows named P7 after replay, want 1", named)
	}
}

func TestSnapshotAndWALTruncation(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := MustSchema(Column{"id", KindInt}, Column{"v", KindFloat})
	db.CreateTable("m", s)
	for i := 0; i < 100; i++ {
		db.Insert("m", Row{IntValue(int64(i)), FloatValue(float64(i) / 2)})
	}
	tb, _ := db.Table("m")
	tb.CreateIndex("id", IndexBTree)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// WAL should be empty now.
	fi, err := os.Stat(filepath.Join(dir, "wal.dtl"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("WAL size after checkpoint = %d, want 0", fi.Size())
	}
	// More inserts after the checkpoint land in the WAL.
	for i := 100; i < 120; i++ {
		db.Insert("m", Row{IntValue(int64(i)), FloatValue(float64(i))})
	}
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tb2, err := db2.Table("m")
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != 120 {
		t.Fatalf("reloaded %d rows, want 120", tb2.Len())
	}
	// Index definition survived the snapshot.
	if typ, ok := tb2.HasIndex("id"); !ok || typ != IndexBTree {
		t.Fatalf("index lost across snapshot: %v %v", typ, ok)
	}
	if rows := readRows(t, tb2, equalTo("id", IntValue(110))); len(rows) != 1 {
		t.Fatalf("post-checkpoint row lost: %v", rows)
	}
}

func TestWALReplaysDeletesAndUpdates(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := MustSchema(Column{"id", KindInt}, Column{"v", KindString})
	db.CreateTable("t", s)
	var ids []int64
	for i := 0; i < 10; i++ {
		id, err := db.Insert("t", Row{IntValue(int64(i)), StringValue(fmt.Sprintf("v%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Delete two rows, replace one; crash (no checkpoint).
	if ok, err := db.Delete("t", ids[3]); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, err := db.Delete("t", ids[7]); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := replaceRow(db, "t", ids[5], Row{IntValue(5), StringValue("updated")}); err != nil {
		t.Fatal(err)
	}
	// Deleting a missing row is a clean no-op.
	if ok, err := db.Delete("t", 9999); ok || err != nil {
		t.Fatalf("missing delete: %v %v", ok, err)
	}
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tb, _ := db2.Table("t")
	if tb.Len() != 8 {
		t.Fatalf("recovered %d rows, want 8", tb.Len())
	}
	seen := map[string]bool{}
	tb.Scan(func(_ int64, r Row) bool {
		seen[r[1].S] = true
		return true
	})
	if seen["v3"] || seen["v7"] {
		t.Fatal("deleted rows survived recovery")
	}
	if seen["v5"] || !seen["updated"] {
		t.Fatal("update did not survive recovery")
	}
}

func TestWALDeleteDuplicateRowsRemovesOne(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	s := MustSchema(Column{"v", KindString})
	db.CreateTable("t", s)
	var first int64
	for i := 0; i < 3; i++ {
		id, _ := db.Insert("t", Row{StringValue("dup")})
		if i == 0 {
			first = id
		}
	}
	db.Delete("t", first)
	db.Close()
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tb, _ := db2.Table("t")
	if tb.Len() != 2 {
		t.Fatalf("recovered %d duplicate rows, want 2", tb.Len())
	}
}

func TestWALToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	s := MustSchema(Column{"id", KindInt})
	db.CreateTable("t", s)
	for i := 0; i < 10; i++ {
		db.Insert("t", Row{IntValue(int64(i))})
	}
	db.Close()
	// Append garbage to simulate a torn write.
	f, err := os.OpenFile(filepath.Join(dir, "wal.dtl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x55, 0x03, 0x01})
	f.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn WAL: %v", err)
	}
	defer db2.Close()
	tb, _ := db2.Table("t")
	if tb.Len() != 10 {
		t.Fatalf("replayed %d rows, want 10", tb.Len())
	}
}

func TestSnapshotRejectsWrongMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.dts"), []byte("NOTASNAPSHOT....."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("bogus snapshot accepted")
	}
}

// TestSnapshotRefusesRetiredForms: nothing writes a checksum-less
// DTSNAP1 snapshot or one without its WAL sequence trailer any more,
// and a missing trailer read as sequence 0 would replay every WAL
// record over rows the snapshot already holds. Open and VerifyDir
// refuse both with an error naming the file; the snapshot a checkpoint
// writes passes both.
func TestSnapshotRefusesRetiredForms(t *testing.T) {
	src := t.TempDir()
	db, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", MustSchema(Column{"id", KindInt})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Insert("t", Row{IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	good, err := os.ReadFile(filepath.Join(src, "snapshot.dts"))
	if err != nil {
		t.Fatal(err)
	}
	// The body between the magic and the checksum ends in the one-byte
	// sequence trailer (a small sequence is a one-byte uvarint).
	body := good[len(snapshotMagic) : len(good)-4]
	withCRC := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	forms := map[string][]byte{
		"checkpointed": good,
		"DTSNAP1":      append([]byte("DTSNAP1\n"), body...),
		"no trailer":   withCRC(append([]byte("DTSNAP2\n"), body[:len(body)-1]...)),
	}
	for name, data := range forms {
		dir := t.TempDir()
		path := filepath.Join(dir, "snapshot.dts")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		verr := VerifyDir(nil, dir)
		db, oerr := Open(dir)
		if oerr == nil {
			db.Close()
		}
		for what, err := range map[string]error{"VerifyDir": verr, "Open": oerr} {
			switch {
			case name == "checkpointed" && err != nil:
				t.Fatalf("%s of the checkpointed snapshot: %v", what, err)
			case name != "checkpointed" && (err == nil || !strings.Contains(err.Error(), path)):
				t.Fatalf("%s of a %s snapshot: err = %v, want a refusal naming %s", what, name, err, path)
			}
		}
	}
}

func TestMultipleCheckpointCycles(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	s := MustSchema(Column{"id", KindInt})
	db.CreateTable("t", s)
	total := 0
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 25; i++ {
			db.Insert("t", Row{IntValue(int64(total))})
			total++
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tb, _ := db2.Table("t")
	if tb.Len() != total {
		t.Fatalf("rows = %d, want %d", tb.Len(), total)
	}
}

// TestCommitEventRetiredRows checks what a commit hook sees of the rows
// a delta retires — read in place without a WAL, the logged copies with
// one — that Detach's copy still reads them after GC has handed their
// slots to later inserts, and that a delta naming a row twice is
// refused whole.
func TestCommitEventRetiredRows(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := db.CreateTable("t", accessSchema)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		fresh := func(n int) []Row {
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = accessRow(rng)
			}
			return rows
		}
		if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: fresh(64)}}); err != nil {
			t.Fatal(err)
		}
		var ids []int64
		var want []Row
		tb.Scan(func(id int64, r Row) bool {
			ids, want = append(ids, id), append(want, append(Row(nil), r...))
			return len(ids) < 10
		})
		var seen []Row
		var kept CommitEvent
		db.OnCommit(func(ev CommitEvent) {
			if seen != nil {
				return
			}
			for i := 0; i < ev.NumDeleted(); i++ {
				r := make(Row, len(accessSchema.Columns))
				for c := range r {
					r[c] = ev.DeletedCell(i, c)
				}
				seen = append(seen, r)
			}
			kept = ev.Detach()
		})
		if err := db.CommitDeltas([]TableDelta{{Table: "t", DeleteIDs: ids, Inserts: fresh(2)}}); err != nil {
			t.Fatal(err)
		}
		if err := db.CommitDeltas([]TableDelta{{Table: "t", Inserts: fresh(len(ids))}}); err != nil {
			t.Fatal(err)
		}
		if tb.Len() != 64-len(ids)+2+len(ids) {
			t.Fatalf("dir %q: Len = %d", dir, tb.Len())
		}
		if len(seen) != len(want) || kept.NumDeleted() != len(want) {
			t.Fatalf("dir %q: hook saw %d retired rows, kept %d, want %d", dir, len(seen), kept.NumDeleted(), len(want))
		}
		for i, w := range want {
			for c := range w {
				if seen[i][c] != w[c] || kept.DeletedCell(i, c) != w[c] {
					t.Fatalf("dir %q: retired row %d column %d read %v in the hook and %v detached, want %v", dir, i, c, seen[i][c], kept.DeletedCell(i, c), w[c])
				}
			}
		}

		var live []int64
		tb.Scan(func(id int64, _ Row) bool { live = append(live, id); return len(live) < 3 })
		err = db.CommitDeltas([]TableDelta{{Table: "t", DeleteIDs: []int64{live[0], live[1], live[2], live[1]}}})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("deletes row %d twice", live[1])) {
			t.Fatalf("dir %q: a delta deleting row %d twice returned %v", dir, live[1], err)
		}
		if tb.Len() != 64+2 {
			t.Fatalf("dir %q: the refused delta changed Len to %d", dir, tb.Len())
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
