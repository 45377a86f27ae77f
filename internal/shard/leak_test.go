package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// The scatter fan-out's goroutine discipline: every gather joins all
// of its shard goroutines before returning, on success, error, and
// cancellation alike. The package TestMain (leaktest.VerifyTestMain
// in shard_test.go) turns any stranded goroutine from these tests
// into a failure at process exit.

// TestCancelMidGatherSlowShard cancels a query while one shard is
// deliberately stuck: the fast shards have already returned, the
// slow shard is blocked inside the gate until cancellation reaches
// it, and Query must unwind with context.Canceled without leaking
// the slow goroutine.
func TestCancelMidGatherSlowShard(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: serialOptions()})

	const slow = 2
	entered := make(chan int, 3)
	c.gateHook = func(ctx context.Context, shard int) error {
		entered <- shard
		if shard == slow {
			// Stuck shard: only cancellation releases it.
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, "SELECT * FROM proteins")
		done <- err
	}()

	// Wait until every shard goroutine is inside the gate, then
	// cancel mid-gather.
	for i := 0; i < 3; i++ {
		<-entered
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-gather cancel: err = %v, want context.Canceled", err)
	}
}

// TestShardErrorCancelsSiblings injects a failure on one shard and
// requires the gather to cancel the still-running siblings, join
// them, and report the injected error — not a cancellation echo.
func TestShardErrorCancelsSiblings(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: serialOptions()})

	injected := fmt.Errorf("injected shard fault")
	c.gateHook = func(ctx context.Context, shard int) error {
		switch shard {
		case 0:
			return injected
		case 2:
			// A sibling parked until the fault's cancellation arrives.
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	_, err := c.Query(context.Background(), "SELECT * FROM proteins")
	if !errors.Is(err, injected) {
		t.Fatalf("gather error = %v, want the injected fault", err)
	}
}

// TestCancelDuringMergePaths covers the classes that do
// coordinator-side work after the gather (partial aggregation and
// the ordered top-k merge): a cancellation that lands while the
// scatter is in flight must surface as context.Canceled, never as a
// partial result.
func TestCancelDuringMergePaths(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	c := newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: serialOptions()})

	queries := []string{
		"SELECT family, COUNT(*) FROM proteins GROUP BY family",
		"SELECT COUNT(*), AVG(affinity) FROM activities",
		"SELECT accession FROM proteins ORDER BY accession LIMIT 3",
	}
	for _, q := range queries {
		entered := make(chan int, 3)
		c.gateHook = func(ctx context.Context, shard int) error {
			entered <- shard
			if shard == 1 {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := c.Query(ctx, q)
			done <- err
		}()
		// Shard 1 is parked inside the gate, so the gather cannot
		// complete before the cancellation below lands.
		<-entered
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("query %q: err = %v, want context.Canceled", q, err)
		}
	}
}
