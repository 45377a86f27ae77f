package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"drugtree/internal/netsim"
	"drugtree/internal/query"
	"drugtree/internal/replica"
	"drugtree/internal/store"
)

// replicaOptions builds a replicated topology on a virtual clock; the
// temp durability root Partition manufactures is removed by Close.
func replicaOptions(followers int) Options {
	return Options{
		Shards:       3,
		QueryOptions: serialOptions(),
		Replicas:     followers,
		MaxLagSeqs:   0,
		Clock:        netsim.NewVirtualClock(),
	}
}

// TestReplicaDifferentialQuiesced is the replication-grade
// differential test: with replication quiesced (every follower at its
// leader's WAL frontier), the scatter results served by followers must
// be row-identical — under the DESIGN §8 merge contract — to the
// leader-served and single-node answers, across every statement class.
func TestReplicaDifferentialQuiesced(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(11))
	single := query.NewEngine(query.NewDBCatalog(db, tree), serialOptions())
	c := newCoordinator(t, db, tree, replicaOptions(2))
	ctx := context.Background()
	if err := c.SyncReplicas(ctx); err != nil {
		t.Fatal(err)
	}

	queries := []struct {
		q      string
		keyPos int
	}{
		{"SELECT COUNT(*) FROM proteins", -1},                                   // partial-agg
		{"SELECT accession, family FROM proteins", -1},                          // scatter
		{"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family", -1}, // partial-agg groups
		{"SELECT accession, length FROM proteins ORDER BY length DESC, accession LIMIT 10", 1}, // scatter-ordered
		{"SELECT ligand_id FROM ligands", -1},                                   // replicated
		{"SELECT COUNT(DISTINCT family) FROM proteins", -1},                     // gather fallback
		{"SELECT p.family, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity > 6.0", -1}, // co-partitioned join
	}
	policies := []struct {
		name string
		p    replica.ReadPolicy
	}{
		{"leader", replica.ReadLeader},
		{"followers", replica.ReadFollowers},
		{"any", replica.ReadAny},
	}
	for _, tc := range queries {
		base, err := single.Query(ctx, tc.q)
		if err != nil {
			t.Fatalf("query %q: single-node baseline: %v", tc.q, err)
		}
		for _, pol := range policies {
			c.SetReadPolicy(pol.p)
			got, err := c.Query(ctx, tc.q)
			if err != nil {
				t.Fatalf("query %q [replica-%s]: %v", tc.q, pol.name, err)
			}
			assertSameRows(t, "replica-"+pol.name, tc.q, tc.keyPos, base, got)
		}
	}
	if lag := c.MaxServedLag(); lag != 0 {
		t.Fatalf("quiesced differential served reads at lag %d, want 0", lag)
	}
}

// TestReplicaWriteShipRead pins the write-visibility pipeline: rows
// written through the coordinator land on shard leaders, lag-bounded
// routing keeps stale followers out until a SyncReplicas tick ships
// the tail, after which followers serve the new rows.
func TestReplicaWriteShipRead(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(5))
	c := newCoordinator(t, db, tree, replicaOptions(1))
	ctx := context.Background()

	total, err := c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	want := total.Rows[0][0].I
	for i := 0; i < 10; i++ {
		row := store.Row{
			store.StringValue(fmt.Sprintf("ZZ%05d", i)),
			store.StringValue("fam-new"),
			store.IntValue(int64(100 + i)),
		}
		if _, err := c.Insert("proteins", row); err != nil {
			t.Fatal(err)
		}
		want++
	}

	// Followers lag; the zero bound forces every read onto leaders, so
	// the count is exact even before shipping.
	c.SetReadPolicy(replica.ReadAny)
	res, err := c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != want {
		t.Fatalf("pre-ship COUNT(*) = %d, want %d", res.Rows[0][0].I, want)
	}
	if lag := c.MaxServedLag(); lag != 0 {
		t.Fatalf("zero-bound routing served stale reads (lag %d)", lag)
	}

	if err := c.SyncReplicas(ctx); err != nil {
		t.Fatal(err)
	}
	c.SetReadPolicy(replica.ReadFollowers)
	res, err = c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != want {
		t.Fatalf("follower-served COUNT(*) after ship = %d, want %d", res.Rows[0][0].I, want)
	}
	for _, h := range c.Health() {
		if h.Status != "ok" {
			t.Fatalf("shard %d status %q after ship, want ok", h.Shard, h.Status)
		}
		for _, rh := range h.Replicas {
			if rh.Lag != 0 {
				t.Fatalf("shard %d replica %d lag %d after ship", h.Shard, rh.Replica, rh.Lag)
			}
		}
		if h.WALSeq == 0 {
			t.Fatalf("shard %d reports WALSeq 0 with a durable WAL", h.Shard)
		}
	}
}

// TestKillLeaderPromoteFailover kills one shard's leader mid-service:
// reads keep flowing from the surviving follower, writes to that shard
// fail until SyncReplicas promotes it, and the topology epoch moves at
// both transitions so statement caches cannot serve stale answers.
func TestKillLeaderPromoteFailover(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, replicaOptions(1))
	ctx := context.Background()

	total, err := c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	want := total.Rows[0][0].I

	part := c.specs["proteins"].keys[0].part
	victim := part.Route(strVal("DT00000"))
	// Find a fresh accession the hash fallback routes to the victim.
	var row store.Row
	for i := 0; ; i++ {
		acc := fmt.Sprintf("ZZ%05d", i)
		if part.Route(strVal(acc)) == victim {
			row = store.Row{strVal(acc), strVal("fam"), store.IntValue(123)}
			break
		}
	}

	e0 := c.Epoch()
	c.KillLeader(victim)
	if c.Epoch() == e0 {
		t.Fatal("killing a leader did not move the topology epoch")
	}

	// The shard is degraded but serving: its follower answers reads.
	res, err := c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatalf("read with a dead leader: %v", err)
	}
	if res.Rows[0][0].I != want {
		t.Fatalf("COUNT(*) with dead leader = %d, want %d", res.Rows[0][0].I, want)
	}
	if h := c.Health()[victim]; h.Status != "degraded" {
		t.Fatalf("victim status %q with dead leader, want degraded", h.Status)
	}
	// Writes to the victim shard have no leader to land on.
	if _, err := c.Insert("proteins", row); !errors.Is(err, replica.ErrLeaderDown) {
		t.Fatalf("insert with dead leader: err = %v, want ErrLeaderDown", err)
	}

	e1 := c.Epoch()
	if err := c.SyncReplicas(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Promotions() != 1 {
		t.Fatalf("promotions = %d after sync with dead leader, want 1", c.Promotions())
	}
	if c.Epoch() == e1 {
		t.Fatal("promotion did not move the topology epoch")
	}
	if _, err := c.Insert("proteins", row); err != nil {
		t.Fatalf("insert after promotion: %v", err)
	}
	res, err = c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != want+1 {
		t.Fatalf("COUNT(*) after failover insert = %d, want %d", res.Rows[0][0].I, want+1)
	}
}

// TestUnavailableShardPolicy pins the default refusal: when every
// replica of a shard is down, queries needing its rows fail with the
// typed ErrShardUnavailable naming the shards, while replicated-table
// and pruned-away queries keep working; restarting a replica restores
// service without a new coordinator.
func TestUnavailableShardPolicy(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, replicaOptions(1))
	ctx := context.Background()

	victim := c.specs["proteins"].keys[0].part.Route(strVal("DT00000"))
	c.KillLeader(victim)
	c.KillReplica(victim, 1)
	if h := c.Health()[victim]; h.Status != "failed" {
		t.Fatalf("victim status %q with every replica down, want failed", h.Status)
	}

	_, err := c.Query(ctx, "SELECT COUNT(*) FROM proteins")
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("scatter needing a dead shard: err = %v, want ErrShardUnavailable", err)
	}
	var ue *UnavailableError
	if !errors.As(err, &ue) || len(ue.Shards) != 1 || ue.Shards[0] != victim {
		t.Fatalf("unavailable error names shards %v, want [%d]", ue.Shards, victim)
	}

	// Replicated tables are whole on every healthy shard.
	if _, err := c.Query(ctx, "SELECT ligand_id FROM ligands"); err != nil {
		t.Fatalf("replicated-table query with a dead shard: %v", err)
	}
	// The fallback gather also needs the dead shard's partitioned rows.
	if _, err := c.Query(ctx, "SELECT COUNT(DISTINCT family) FROM proteins"); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("fallback needing a dead shard: err = %v, want ErrShardUnavailable", err)
	}

	// A surviving replica restores service: restart the follower, let
	// SyncReplicas promote it, and the scatter answers again.
	if err := c.RestartReplica(ctx, victim, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncReplicas(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "SELECT COUNT(*) FROM proteins"); err != nil {
		t.Fatalf("scatter after replica restart: %v", err)
	}
}
