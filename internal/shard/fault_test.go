package shard

import (
	"context"
	"testing"

	"drugtree/internal/replica"
	"drugtree/internal/store"
	"drugtree/internal/vfs"
)

// These tests run the sharded topology on a deterministic FaultFS:
// the manifest commit must survive a power loss (the parent-directory
// fsync after the atomic rename is load-bearing), and at-rest rot on
// a replica follower must be healed by the coordinator's scrub pass.

// cloneSourceOn copies src's tables (schema, rows, secondary indexes)
// into a fresh in-memory store whose filesystem seam is fsys, so a
// Partition over the clone inherits the fault-injecting FS for every
// shard store, follower, and manifest write.
func cloneSourceOn(t *testing.T, src *store.DB, fsys vfs.FS) *store.DB {
	t.Helper()
	db, err := store.OpenWith("", store.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range src.TableNames() {
		st, err := src.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := db.CreateTable(name, st.Schema())
		if err != nil {
			t.Fatal(err)
		}
		var ierr error
		st.Scan(func(_ int64, r store.Row) bool {
			_, ierr = tab.Insert(r)
			return ierr == nil
		})
		if ierr != nil {
			t.Fatal(ierr)
		}
		for _, ix := range st.Indexes() {
			if err := tab.CreateIndex(ix.Column, ix.Type); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestManifestSurvivesCrash partitions durably on a FaultFS, crashes
// the machine right after Close, and proves the completion manifest —
// committed by tmp + fsync + rename + directory fsync — is still
// present, intact, and matching, so the reopened coordinator reuses
// the shard stores instead of re-partitioning.
func TestManifestSurvivesCrash(t *testing.T) {
	fsys := vfs.NewFault(7)
	mem, tree := buildFixture(t, fixtureConfig(7))
	db := cloneSourceOn(t, mem, fsys)
	opts := Options{Shards: 3, QueryOptions: serialOptions(), Dir: "shards"}
	ctx := context.Background()

	c1, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.Query(ctx, "SELECT COUNT(*), SUM(length) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	fsys.Reboot() // power loss: only fsynced state survives

	m, err := readManifest(fsys, "shards")
	if err != nil {
		t.Fatalf("manifest did not survive the crash: %v", err)
	}
	fp, err := fingerprint(db, 3, m.Starts)
	if err != nil {
		t.Fatal(err)
	}
	if !m.equal(fp) {
		t.Fatalf("surviving manifest %+v does not match the source fingerprint", m)
	}
	c2, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.Query(ctx, "SELECT COUNT(*), SUM(length) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "crash-reopen", "SELECT COUNT(*), SUM(length) FROM proteins", -1, want, res)
}

// TestManifestNeedsDirSync is the harness-has-teeth counterpart:
// behind a vfs.NoDirSync wrapper the same partitioning loses its
// manifest at power loss, because a renamed directory entry that is
// never fsynced is not durable under the strict crash model. If this
// test ever starts passing readManifest, the fault model has gone
// soft and the durability tests above prove nothing.
func TestManifestNeedsDirSync(t *testing.T) {
	fsys := vfs.NewFault(7)
	mem, tree := buildFixture(t, fixtureConfig(7))
	db := cloneSourceOn(t, mem, vfs.NoDirSync(fsys))
	opts := Options{Shards: 3, QueryOptions: serialOptions(), Dir: "shards"}

	c1, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	fsys.Reboot()

	if _, err := readManifest(fsys, "shards"); err == nil {
		t.Fatal("manifest survived a crash with directory fsyncs disabled; the crash model is not enforcing entry durability")
	}
}

// TestScrubReplicasHealsCorruptFollower rots one follower's seed
// snapshot at rest and runs the coordinator's scrub pass: exactly that
// follower must be quarantined and re-seeded, its directory verifiable
// again, and the replicated topology must keep answering correctly.
func TestScrubReplicasHealsCorruptFollower(t *testing.T) {
	fsys := vfs.NewFault(3)
	mem, tree := buildFixture(t, fixtureConfig(3))
	db := cloneSourceOn(t, mem, fsys)
	opts := Options{Shards: 2, Replicas: 1, MaxLagSeqs: -1, QueryOptions: serialOptions(), Dir: "shards"}
	ctx := context.Background()

	c, err := Partition(db, tree, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want, err := c.Query(ctx, "SELECT COUNT(*), SUM(length) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}

	const rotted = "shards/shard-0-replica-1"
	if err := fsys.Corrupt(rotted+"/snapshot.dts", 16, 0x20); err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyDir(fsys, rotted); err == nil {
		t.Fatal("corrupted follower still verifies; the rot did not land")
	}
	healed, err := c.ScrubReplicas(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if healed != 1 {
		t.Fatalf("ScrubReplicas healed %d followers, want 1", healed)
	}
	if err := store.VerifyDir(fsys, rotted); err != nil {
		t.Fatalf("follower fails verification after scrub: %v", err)
	}
	// A second pass finds nothing: the heal is complete, not cyclic.
	if healed, err = c.ScrubReplicas(ctx); err != nil || healed != 0 {
		t.Fatalf("second scrub pass = (%d, %v), want (0, nil)", healed, err)
	}
	// Route reads through the followers so the healed node itself
	// answers — it must serve the leader's rows, never the rotted image.
	c.SetReadPolicy(replica.ReadFollowers)
	res, err := c.Query(ctx, "SELECT COUNT(*), SUM(length) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "post-scrub", "SELECT COUNT(*), SUM(length) FROM proteins", -1, want, res)
}
