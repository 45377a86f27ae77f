package experiments

import (
	"context"
	"testing"

	"drugtree/internal/core"
)

// BenchmarkT11Sharded is the T11 topology comparison as a testing.B
// benchmark: each query class runs as a single-node and a 4-shard
// sub-benchmark over the same store and tree, so `go test -bench
// T11Sharded` reports the same scatter-vs-single ratios RunT11
// tabulates.
func BenchmarkT11Sharded(b *testing.B) {
	ctx := context.Background()
	single, sharded, err := t11Engines(ctx, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer sharded.Close()
	classes := t11Classes()
	for i := range classes {
		if classes[i].dtql == "" {
			// The subtree class needs a tree-dependent clade; the fixed
			// pre-range below exercises the same pruned-range path.
			classes[i].dtql = "SELECT pre, name FROM tree_nodes WHERE pre >= 3 AND pre <= 150"
		}
	}
	engines := map[string]*core.Engine{"single": single, "shard4": sharded}
	for _, cls := range classes {
		for _, name := range []string{"single", "shard4"} {
			e := engines[name]
			b.Run(cls.name+"/"+name, func(b *testing.B) {
				if _, err := e.Query(ctx, cls.dtql); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Query(ctx, cls.dtql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
