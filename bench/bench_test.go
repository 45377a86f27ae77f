package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// The driver's limits on names and units (BENCHMARK.json contract).
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q breaks the naming rule", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the driver's 16/128", len(endToEnd), len(perLayer))
	}
}

// TestSpecMatchesBenchmarkJSON keeps spec.go and the driver's manifest
// in step: same workloads, same metrics, same units and bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var manifest struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Paths) != 1 || manifest.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloadNames) {
		t.Fatalf("manifest lists %d workloads, spec %d", len(manifest.Workloads), len(workloadNames))
	}
	for i, w := range manifest.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: manifest %q, spec %q", i, w.Name, workloadNames[i])
		}
	}
	if len(manifest.EndToEnd) != len(endToEnd) || len(manifest.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d+%d metrics, spec %d+%d", len(manifest.EndToEnd), len(manifest.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range manifest.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Bound != d.Bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: manifest %+v, spec %+v", i, m, d)
		}
	}
	for i, m := range manifest.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer metric %d: manifest %+v, spec %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	got := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if want := [3]float64{3.5, 24, 160}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// testFixture builds a workload's fixture and closes it with the test.
func testFixture(t *testing.T, workload string, short bool) *fixture {
	t.Helper()
	fx, err := buildFixture(context.Background(), workload, short)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := fx.close(); err != nil {
			t.Error(err)
		}
	})
	return fx
}

// TestOpListDeterminism: one seed, one op list — byte for byte — and
// another seed, another list.
func TestOpListDeterminism(t *testing.T) {
	d1 := testFixture(t, wlAnalytics, false)
	fixtures := map[string]*fixture{wlBrowse: testFixture(t, wlBrowse, false)}
	for _, w := range []string{wlAnalytics, wlIngest, wlSharded} {
		// Op generation reads the tree and the dataset, not the
		// engine's topology, so one D1 build serves all three.
		fx := *d1
		fx.workload = w
		fixtures[w] = &fx
	}
	for _, w := range workloadNames {
		sz := sizeFor(10, false)
		a, err := genOps(fixtures[w], 7, sz)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genOps(fixtures[w], 7, sz)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genOps(fixtures[w], 8, sz)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeOps(a), encodeOps(b)) {
			t.Errorf("%s: two generations from seed 7 differ", w)
		}
		if bytes.Equal(encodeOps(a), encodeOps(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w)
		}
		if len(a) < 240 {
			t.Errorf("%s: %d slots at -seconds 10, want ≥ 240", w, len(a))
		}
		if short, err := genOps(fixtures[w], 7, sizeFor(10, true)); err != nil {
			t.Error(err)
		} else if len(short) > 60 {
			t.Errorf("%s: short op list has %d slots, want ≤ 60", w, len(short))
		}
	}
}

// TestShortPass runs every workload at smoke size, untraced and
// traced, inside 10 s each: all metrics present and no failed op.
func TestShortPass(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			start := time.Now()
			o := options{workload: w, seed: 2, seconds: 10, short: true, outDir: t.TempDir()}
			e2e, attempted, failed, err := runUntraced(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			if failed != 0 || attempted == 0 {
				t.Errorf("untraced: %d of %d ops failed", failed, attempted)
			}
			for _, d := range endToEnd {
				if v, ok := e2e[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, v)
				}
			}
			layers, _, failed, err := runTraced(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			if failed != 0 {
				t.Errorf("traced: %d ops failed", failed)
			}
			for _, d := range perLayer {
				if _, ok := layers[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if layers["store.active_snapshots_at_rest"] != 0 {
				t.Errorf("store.active_snapshots_at_rest = %v, want 0", layers["store.active_snapshots_at_rest"])
			}
			if _, err := os.Stat(o.outDir + "/trace-" + w + ".json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if took := time.Since(start); took > 10*time.Second {
				t.Errorf("short pass took %v, want < 10 s", took)
			}
		})
	}
}

// TestCountsRepeat: on one fixture, two passes of a read-only workload
// move exactly the same bytes and examine exactly the same rows.
// (Across builds of D1 the clade names — clade_<preorder> — can differ
// by a digit, because core.New reads proteins in map order; and ingest
// keeps churning, so its second pass reads different rows by design.)
func TestCountsRepeat(t *testing.T) {
	ctx := context.Background()
	for _, w := range []string{wlBrowse, wlAnalytics} {
		fx := testFixture(t, w, true)
		var wire, examined [2]float64
		for pass := range wire {
			r, err := newRunner(fx, sizeFor(10, true), 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.measure(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			res.setups = []setupTiming{fx.timing}
			e2e, err := res.endToEndMetrics(len(r.ops))
			if err != nil {
				t.Fatal(err)
			}
			pr, err := r.probeQueries(ctx, newTracer(), 12)
			if err != nil {
				t.Fatal(err)
			}
			wire[pass] = e2e["wire_bytes_per_op"]
			examined[pass] = ratio(float64(pr.rowsExamined), float64(pr.rowsReturned))
		}
		if wire[0] != wire[1] || examined[0] != examined[1] {
			t.Errorf("%s: wire_bytes_per_op %v, rows examined per row returned %v differ between passes", w, wire, examined)
		}
	}
}
