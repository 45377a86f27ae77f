package experiments

import (
	"context"
	"fmt"
	"net"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/metrics"
	"drugtree/internal/mobile"
	"drugtree/internal/netsim"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// F4Config is one rung of the end-to-end ablation ladder: the full
// stack with one mechanism removed. The ladder drives the mobile
// server, whose Open reads neither the semantic cache nor the
// prefetcher, so neither is a rung; F2 prices them.
type F4Config struct {
	Name     string
	Query    query.Options
	Strategy mobile.Strategy
	Budget   int
}

// F4Configs returns the ladder, full stack first.
func F4Configs() []F4Config {
	full := F4Config{
		Name:     "full stack",
		Query:    query.DefaultOptions(),
		Strategy: mobile.StrategyLODDelta, Budget: 100,
	}
	noDelta := full
	noDelta.Name = "- delta encoding"
	noDelta.Strategy = mobile.StrategyLOD
	noLOD := full
	noLOD.Name = "- LOD streaming"
	noLOD.Strategy = mobile.StrategyFull
	noOpt := full
	noOpt.Name = "- query optimizer"
	noOpt.Query = query.NaiveOptions()
	naive := F4Config{
		Name:     "naive everything",
		Query:    query.NaiveOptions(),
		Strategy: mobile.StrategyFull, Budget: 100,
	}
	return []F4Config{full, noDelta, noOpt, noLOD, naive}
}

// F4Steps is the session length of the ablation run.
const F4Steps = 120

// RunF4Session runs one config and returns the per-interaction
// total-latency histogram (server compute measured + 3G network
// modelled from actual bytes). The one-return-value wrapper keeps the
// benchmark harness simple; RunF4SessionSplit exposes the compute and
// network components separately.
func RunF4Session(ctx context.Context, leaves int, seed int64, fc F4Config) (*metrics.Histogram, error) {
	total, _, _, err := RunF4SessionSplit(ctx, leaves, seed, fc)
	return total, err
}

// RunF4SessionSplit runs one config and returns the total, compute,
// and network per-interaction histograms.
func RunF4SessionSplit(ctx context.Context, leaves int, seed int64, fc F4Config) (total, compute, network *metrics.Histogram, err error) {
	tree, err := datagen.RandomTopology(leaves, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	db, err := store.Open("")
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.QueryOptions = fc.Query
	e, err := core.NewWithTree(db, tree, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	trace := GenerateTrace(e.Tree(), F4Steps, seed+3)

	server := mobile.NewServer(e)
	clientConn, serverConn := net.Pipe()
	defer clientConn.Close()
	defer serverConn.Close()
	errc := make(chan error, 1)
	go func() { errc <- server.ServeConn(ctx, serverConn) }()
	c, err := mobile.Dial(clientConn, fc.Strategy, fc.Budget)
	if err != nil {
		return nil, nil, nil, err
	}
	total = &metrics.Histogram{}
	compute = &metrics.Histogram{}
	network = &metrics.Histogram{}
	prevBytes := int64(0)
	g3 := netsim.Profile3G
	g3.Jitter = 0
	g3.LossPct = 0
	for _, node := range trace {
		start := clock.Now()
		if _, err := c.Open(node); err != nil {
			return nil, nil, nil, err
		}
		comp := clock.Now() - start
		moved := c.BytesDown - prevBytes
		prevBytes = c.BytesDown
		net := modelledLatency(g3, float64(moved))
		compute.Record(comp)
		network.Record(net)
		total.Record(comp + net)
	}
	c.Close()
	clientConn.Close()
	<-errc
	return total, compute, network, nil
}

// RunF4 runs the end-to-end ablation ladder on a 2000-leaf tree over
// a modelled 3G link and reports the interaction-latency distribution.
func RunF4(ctx context.Context, seed int64) (*Report, error) {
	const leaves = 2000
	rep := &Report{
		ID:     "F4",
		Title:  fmt.Sprintf("End-to-end interaction latency on 3G: ablation ladder (%d-leaf tree, %d interactions)", leaves, F4Steps),
		Header: []string{"config", "total p50", "total p99", "total mean", "compute mean", "network mean"},
	}
	var fullMean, naiveMean time.Duration
	for _, fc := range F4Configs() {
		total, compute, network, err := RunF4SessionSplit(ctx, leaves, seed, fc)
		if err != nil {
			return nil, fmt.Errorf("F4 %s: %w", fc.Name, err)
		}
		rep.Rows = append(rep.Rows, []string{
			fc.Name,
			fmt.Sprint(total.Percentile(0.50).Round(time.Millisecond)),
			fmt.Sprint(total.Percentile(0.99).Round(time.Millisecond)),
			fmt.Sprint(total.Mean().Round(time.Millisecond)),
			fmt.Sprint(compute.Mean().Round(10 * time.Microsecond)),
			fmt.Sprint(network.Mean().Round(time.Millisecond)),
		})
		switch fc.Name {
		case "full stack":
			fullMean = total.Mean()
		case "naive everything":
			naiveMean = total.Mean()
		}
	}
	rep.Notes = fmt.Sprintf(
		"expectation: on 3G the network term dominates, so LOD streaming is the top contributor; an Open runs no statement, so the optimizer rung reads the full stack's compute; full stack vs naive = %.1fx",
		float64(naiveMean)/float64(fullMean))
	return rep, nil
}
