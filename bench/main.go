// Command bench is the repository benchmark: four fixed-op-list
// workloads replayed by one closed-loop mobile client over the real
// request path (mobile.Client frames → net.Pipe → Server.ServeConn →
// core.Engine built as cmd/drugtreed builds it), reporting per-slot
// lower-quartile latency and per-layer metrics. See README.md for the metric and
// workload tables; BENCHMARK.json at the repository root names the
// same metrics for the driver.
//
//	go run . -workload analytics -seed 1            # from bench/
//	bash bench/run.sh --workload browse --seed 2 --seconds 10 --trace 1
//	go run . -aa 5                                   # A/A noise report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"time"
)

// report is the last line of standard output, read by the driver.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	short    bool
	outDir   string
}

func main() {
	var o options
	var trace, aa int
	flag.StringVar(&o.workload, "workload", "", "workload to run: browse, analytics, ingest or sharded")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the op list (the datasets are fixed corpora)")
	flag.IntVar(&o.seconds, "seconds", 10, "time the five measured rounds are sized to fill (sets the op count; the run is never time-boxed)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file under -out")
	flag.BoolVar(&o.short, "short", false, "smoke size: one measured round, ≤ 60 slots")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for trace files")
	flag.IntVar(&aa, "aa", 0, "A/A mode: run N interleaved pairs of runs per workload and report the spread")
	flag.Parse()
	o.trace = trace != 0

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	if aa > 0 {
		err = runAA(ctx, aa, o.seconds)
	} else {
		err = runOne(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne executes one workload and prints its metrics.
func runOne(ctx context.Context, o options) error {
	if !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	fmt.Printf("# drugtree bench: workload=%s seed=%d seconds=%d trace=%v short=%v\n", o.workload, o.seed, o.seconds, o.trace, o.short)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d GOGC=%q %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), os.Getenv("GOGC"), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	var values map[string]float64
	var defs []metricDef
	var attempted, failed int
	var err error
	if o.trace {
		defs = perLayer
		values, attempted, failed, err = runTraced(ctx, o)
	} else {
		defs = endToEnd
		values, attempted, failed, err = runUntraced(ctx, o)
	}
	if err != nil {
		return err
	}
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Printf("%-40s %14.6g %s\n", d.Name, v, d.Unit)
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	fmt.Printf("%-40s %14.6g ratio (%d of %d ops)\n", "fail_ratio", float64(failed)/float64(attempted), failed, attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d ops failed or failed an output check", failed, attempted)
	}
	return nil
}

// runUntraced builds the fixture setupRepeats times (setup_s is the
// median), keeps the last, and measures it.
func runUntraced(ctx context.Context, o options) (map[string]float64, int, int, error) {
	sz := sizeFor(o.seconds, o.short)
	rounds, repeats := measuredRounds(o.workload), setupRepeats
	if o.short {
		rounds, repeats = 1, 1
	}
	var fx *fixture
	var setups []setupTiming
	start := time.Now()
	for i := 0; i < repeats; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, 0, 0, err
			}
		}
		var err error
		fx, err = buildFixture(ctx, o.workload, o.short)
		if err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, fx.timing)
	}
	setupDone := time.Now()
	r, err := newRunner(fx, sz, o.seed)
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Printf("# load: closed loop, 1 client, %d slots/round, 1 check round + %d measured rounds, %d set-ups\n", len(r.ops), rounds, repeats)
	res, err := r.measure(ctx, rounds)
	if err != nil {
		return nil, 0, 0, err
	}
	res.setups = setups
	fmt.Printf("# elapsed: %.1f s in set-ups, %.1f s in rounds and checks\n", setupDone.Sub(start).Seconds(), time.Since(setupDone).Seconds())
	fmt.Printf("# slot latencies: p10=%v p50=%v p90=%v p95=%v p99=%v max=%v\n",
		percentileDur(res.slotLat, 0.10), percentileDur(res.slotLat, 0.50), percentileDur(res.slotLat, 0.90),
		percentileDur(res.slotLat, 0.95), percentileDur(res.slotLat, 0.99), percentileDur(res.slotLat, 1))
	fmt.Printf("# host slowdown by round (reference kernel ÷ nominal):")
	for _, st := range res.rounds {
		fmt.Printf(" %.3f", st.slow)
	}
	fmt.Println()
	values, err := res.endToEndMetrics(len(r.ops))
	if err != nil {
		return nil, 0, 0, err
	}
	if err := fx.close(); err != nil {
		return nil, 0, 0, err
	}
	return values, res.attempted, res.failed, nil
}
