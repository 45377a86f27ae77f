package core

import (
	"context"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// heapProfile, when set, names the file TestD1HeapAtRest writes an
// in-use heap profile of the D1 engine at rest to (`make heap`).
var heapProfile = flag.String("heap-profile", "", "write an in-use heap profile of the D1 engine at rest to this file")

// d1 is dataset D1 as the repository benchmark builds it: 16 families of
// 50 proteins, 200 ligands and ≈ 48.5 k activities.
func d1() datagen.Config {
	gen := datagen.DefaultConfig()
	gen.Seed = 1
	gen.NumFamilies = 16
	gen.ProteinsPerFamily = 50
	gen.SeqLen = 240
	gen.NumLigands = 200
	gen.ActivityDensity = 0.3
	return gen
}

// TestD1HeapAtRest is the tier-1 guard on the heap the D1 workloads
// hold: dataset D1, its four source banks, the store ImportAll fills
// and the engine core.New builds over it, all kept alive, after a
// forced GC. The banks read the dataset's records in place and the
// import commit and Generate leave no append slack, so the data is held
// once: 10.9 MB measured, bound 12 (21.9 MB while each bank kept a boxed
// copy of its rows). The race detector does not move the figure.
func TestD1HeapAtRest(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := liveHeap()
	ds, err := datagen.Generate(d1())
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
	im := integrate.NewImporter(db, bundle)
	if _, err := im.ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	e, err := New(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	held := float64(liveHeap()-base) / 1e6
	if *heapProfile != "" {
		f, err := os.Create(*heapProfile)
		if err != nil {
			t.Fatal(err)
		}
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("D1 (%d activities) at rest: %.2f MB of live heap", len(ds.Activities), held)
	if held > 12 {
		t.Errorf("D1 at rest holds %.2f MB of live heap, want ≤ 12", held)
	}
	runtime.KeepAlive(im)
	runtime.KeepAlive(e)
}
