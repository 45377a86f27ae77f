package cache

import (
	"fmt"
	"testing"
)

func BenchmarkCacheGet(b *testing.B) {
	c := New(16 << 20)
	c.Put(mkEntry(k1, 0, 4095, 1))
	b.Run("ExactHit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Get(k1, 0, 4095, 1)
		}
	})
	miss := Key{Relation: "other", RangeCol: "pre"}
	b.Run("Miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Get(miss, 0, 10, 1)
		}
	})
}

// BenchmarkSubsumedGet windows a 64 Ki-row entry: allocs/op must not
// grow with the window.
func BenchmarkSubsumedGet(b *testing.B) {
	const rows = 1 << 16
	c := New(64 << 20)
	c.Put(mkEntry(k1, 0, rows-1, 1))
	for _, width := range []int64{64, 4096, rows / 2} {
		b.Run(fmt.Sprintf("rows=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := int64(i) % (rows - width)
				c.Get(k1, lo, lo+width-1, 1)
			}
		})
	}
	b.Run("Covers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Covers(k1, 10, 5000, 1)
		}
	})
}

func BenchmarkCachePutEvict(b *testing.B) {
	entrySize := batchBytes(mkBatch(0, 99))
	c := New(entrySize * 8) // room for ~8 entries → constant eviction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := Key{Relation: "r", RangeCol: "pre", Residual: ""}
		lo := int64(i%64) * 1000
		c.Put(mkEntry(k, lo, lo+99, 1))
	}
}
