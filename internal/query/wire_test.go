package query_test

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"

	"drugtree/internal/core"
	"drugtree/internal/mobile"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// TestWireMatchesRowExecutor is the wire column of the differential
// matrix. Every statement of the fixed corpus, asked by a mobile client
// of a served engine, must arrive as exactly the rows the row adapter
// returns, in order and bit for bit. The served path fills the statement
// cache and is then hit from it, and encodes the shared columns cell by
// cell. Single-node, the reference is query.Engine.Query over the same
// store, its own engine's columns transposed into rows. Sharded, it is the
// coordinator's own rows, which the served engine transposes into
// generic columns.
func TestWireMatchesRowExecutor(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx := context.Background()
			cat := query.EngineCatalog(t)
			cfg := core.DefaultConfig()
			cfg.QueryOptions = query.SerialOptions()
			cfg.QueryCacheEntries = 64
			cfg.Shards = shards
			served, err := core.NewWithTree(cat.DB, cat.Tree(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer served.Close()
			reference := func(q string) (*query.Result, error) {
				if shards == 0 {
					return query.NewEngine(cat, cfg.QueryOptions).Query(ctx, q)
				}
				return served.Coordinator().Query(ctx, q)
			}

			clientConn, serverConn := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- mobile.NewServer(served).ServeConn(ctx, serverConn) }()
			c, err := mobile.Dial(clientConn, mobile.StrategyLOD, 20)
			if err != nil {
				t.Fatal(err)
			}
			corpus := query.DifferentialCorpus()
			for _, q := range corpus {
				want, err := reference(q)
				if err != nil {
					t.Fatalf("%q: reference: %v", q, err)
				}
				for _, pass := range []string{"fill", "hit"} {
					got, err := c.Query(q)
					if err != nil {
						t.Fatalf("%q (%s): %v", q, pass, err)
					}
					if !slices.Equal(got.Columns, want.Columns) {
						t.Fatalf("%q (%s): columns %v, want %v", q, pass, got.Columns, want.Columns)
					}
					if len(got.Rows) != len(want.Rows) {
						t.Fatalf("%q (%s): %d rows, want %d", q, pass, len(got.Rows), len(want.Rows))
					}
					for i := range want.Rows {
						if g, w := store.AppendRow(nil, got.Rows[i]), store.AppendRow(nil, want.Rows[i]); string(g) != string(w) {
							t.Fatalf("%q (%s): row %d is %v, want %v", q, pass, i, got.Rows[i], want.Rows[i])
						}
					}
				}
			}
			if hits := served.Metrics.Counter("query.stmt_cache_hits").Value(); hits != int64(len(corpus)) {
				t.Fatalf("%d statement-cache hits, want %d", hits, len(corpus))
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}
