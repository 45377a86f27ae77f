// Package shard keeps the names the repository benchmark's `sharded`
// workload compiles against. There is one data plane: a Coordinator
// runs every statement on one query.Engine over the store it was built
// from, at the snapshot the statement pins, so it sees every commit to
// that store. Partition copies nothing.
package shard

import (
	"context"

	"drugtree/internal/admission"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// Options configures Partition. Shards and Admission are accepted from
// the callers that set them and change nothing: nothing is partitioned,
// and Query is not admission-gated.
type Options struct {
	// Shards is the partition count the caller asked for.
	Shards int
	// QueryOptions configures the DTQL engine that answers Query.
	QueryOptions query.Options
	// Admission is the limiter configuration the caller's engine uses.
	Admission *admission.Config
}

// Coordinator answers DTQL statements from one store.
type Coordinator struct {
	engine *query.Engine
}

// Partition returns a coordinator that answers from db and tree.
func Partition(db *store.DB, tree *phylo.Tree, opts Options) (*Coordinator, error) {
	return &Coordinator{engine: query.NewEngine(query.NewDBCatalog(db, tree), opts.QueryOptions)}, nil
}

// Query parses and runs one statement at a snapshot it pins, returning
// its answer as Result.Rows. ctx cancels mid-flight execution.
func (c *Coordinator) Query(ctx context.Context, src string) (*query.Result, error) {
	return c.engine.Query(ctx, src)
}

// Close is a no-op: the coordinator owns no store.
func (c *Coordinator) Close() error { return nil }
