package shard

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"drugtree/internal/store"
	"drugtree/internal/vfs"
)

// shardRowCount sums a table's rows across every shard store.
func shardRowCount(t *testing.T, c *Coordinator, table string) int {
	t.Helper()
	total := 0
	for i := 0; i < c.Shards(); i++ {
		tab, err := c.Shard(i).DB().Table(table)
		if err != nil {
			t.Fatal(err)
		}
		total += tab.Len()
	}
	return total
}

// TestDurableInterruptedRepartition simulates a partitioning that
// crashed mid-populate: shard stores hold a partial row set and no
// completion manifest exists. Reopening must re-partition from the
// source instead of trusting the nonzero table lengths — the failure
// mode where a partially populated shard was marked "preloaded" and
// its missing rows were silently lost forever.
func TestDurableInterruptedRepartition(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	dir := t.TempDir()
	opts := Options{Shards: 3, QueryOptions: serialOptions(), Dir: dir}
	ctx := context.Background()

	c1, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := shardRowCount(t, c1, "proteins")
	want, err := c1.Query(ctx, "SELECT COUNT(*), SUM(length) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge the interrupted state: drop the manifest and delete rows
	// from one shard store, leaving it durable, nonempty, and
	// incomplete — exactly what a crash between populate and the
	// manifest write leaves behind.
	if err := os.Remove(manifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	sdb, err := store.Open(filepath.Join(dir, "shard-1"))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := sdb.Table("proteins")
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	tab.Scan(func(id int64, _ store.Row) bool {
		ids = append(ids, id)
		return len(ids) < 5
	})
	if len(ids) == 0 {
		t.Fatal("shard 1 holds no proteins to delete")
	}
	for _, id := range ids {
		if _, err := sdb.Delete("proteins", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := shardRowCount(t, c2, "proteins"); got != wantRows {
		t.Fatalf("re-partitioned topology holds %d protein rows, want %d", got, wantRows)
	}
	res, err := c2.Query(ctx, "SELECT COUNT(*), SUM(length) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "interrupted-reopen", "SELECT COUNT(*), SUM(length) FROM proteins", -1, want, res)
}

// TestDurableSourceChangeRepartition changes the source dataset under
// the same directory: the manifest fingerprint mismatches and the
// topology must be rebuilt from the new source, not served stale.
func TestDurableSourceChangeRepartition(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	dir := t.TempDir()
	opts := Options{Shards: 3, QueryOptions: serialOptions(), Dir: dir}
	ctx := context.Background()

	c1, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	before, err := c1.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-generate the dataset: one extra protein row.
	if _, err := db.Insert("proteins", store.Row{
		store.StringValue("DTNEW00"),
		store.StringValue("FAM00"),
		store.IntValue(133),
	}); err != nil {
		t.Fatal(err)
	}

	c2, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	after, err := c2.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Rows[0][0].I, before.Rows[0][0].I+1; got != want {
		t.Fatalf("reopened COUNT(*) = %d, want %d (stale shard stores served?)", got, want)
	}
	res, err := c2.Query(ctx, "SELECT family FROM proteins WHERE accession = 'DTNEW00'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("new source row not present in re-partitioned topology (%d rows)", len(res.Rows))
	}
}

// TestDurableTopologyChangeRepartition reopens the same source with a
// different shard count: the manifest topology mismatches, so the
// directories are rebuilt instead of row counts silently straddling
// two layouts.
func TestDurableTopologyChangeRepartition(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	dir := t.TempDir()
	ctx := context.Background()

	c1, err := Partition(db, tree, Options{Shards: 3, QueryOptions: serialOptions(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Partition(db, tree, Options{Shards: 2, QueryOptions: serialOptions(), Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].I != want.Rows[0][0].I {
		t.Fatalf("2-shard reopen COUNT(*) = %d, want %d", got.Rows[0][0].I, want.Rows[0][0].I)
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestPartitionErrorClosesShards makes populate fail after every
// durable shard store (and its WAL) has been opened, and requires the
// failed construction to close them all — no leaked file handles.
func TestPartitionErrorClosesShards(t *testing.T) {
	_, tree := buildFixture(t, fixtureConfig(7))
	// A source whose proteins table lacks the partition column makes
	// populate fail after the shard stores are open.
	src, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.CreateTable("proteins", store.MustSchema(
		store.Column{Name: "id", Kind: store.KindString},
	)); err != nil {
		t.Fatal(err)
	}

	before := openFDs(t)
	_, err = Partition(src, tree, Options{Shards: 3, QueryOptions: serialOptions(), Dir: t.TempDir()})
	if err == nil {
		t.Fatal("Partition over a keyless proteins table did not fail")
	}
	if after := openFDs(t); after != before {
		t.Fatalf("failed Partition leaked file descriptors: %d before, %d after", before, after)
	}

	// No manifest may be left behind by the failed run.
	dir := t.TempDir()
	if _, err := Partition(src, tree, Options{Shards: 3, QueryOptions: serialOptions(), Dir: dir}); err == nil {
		t.Fatal("Partition did not fail")
	}
	if _, err := os.Stat(manifestPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("failed Partition left a completion manifest (stat err: %v)", err)
	}
}

// TestManifestFingerprint pins the fingerprint's sensitivity: row
// edits, additions, and topology changes all change it; scan order
// does not (the checksum is an order-independent sum).
func TestManifestFingerprint(t *testing.T) {
	mk := func(rows ...int64) *store.DB {
		db, err := store.Open("")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable("t", store.MustSchema(store.Column{Name: "v", Kind: store.KindInt})); err != nil {
			t.Fatal(err)
		}
		for _, v := range rows {
			if _, err := db.Insert("t", store.Row{store.IntValue(v)}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	base, err := fingerprint(mk(1, 2, 3), 2, []int64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    func() (*manifest, error)
		want bool
	}{
		{"same", func() (*manifest, error) { return fingerprint(mk(1, 2, 3), 2, []int64{0, 2}) }, true},
		{"reordered", func() (*manifest, error) { return fingerprint(mk(3, 1, 2), 2, []int64{0, 2}) }, true},
		{"edited-row", func() (*manifest, error) { return fingerprint(mk(1, 2, 4), 2, []int64{0, 2}) }, false},
		{"extra-row", func() (*manifest, error) { return fingerprint(mk(1, 2, 3, 3), 2, []int64{0, 2}) }, false},
		{"shard-count", func() (*manifest, error) { return fingerprint(mk(1, 2, 3), 3, []int64{0, 1, 2}) }, false},
		{"cuts", func() (*manifest, error) { return fingerprint(mk(1, 2, 3), 2, []int64{0, 1}) }, false},
	}
	for _, tc := range cases {
		m, err := tc.m()
		if err != nil {
			t.Fatal(err)
		}
		if got := base.equal(m); got != tc.want {
			t.Fatalf("%s: equal = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Round-trip through the on-disk encoding.
	dir := t.TempDir()
	if err := writeManifest(vfs.OS(), dir, base); err != nil {
		t.Fatal(err)
	}
	back, err := readManifest(vfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !back.equal(base) {
		t.Fatalf("manifest round-trip diverged: %+v vs %+v", back, base)
	}
}
