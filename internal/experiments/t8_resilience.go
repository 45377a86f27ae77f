package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/metrics"
	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// T8 chaos experiment: a 3-source integration workload driven through
// a scripted 120-second fault timeline on a shared virtual clock —
// ProteinBank flaps (90% error burst, t=10–20s), ActivityBank goes
// dark (hard outage, t=30–66s: 30% of the timeline), LigandBank
// browns out (40× response time, t=80–100s). Each virtual second the
// mediator resyncs and a mobile-style 3-way join must answer.
//
// Resilient mode = capped-backoff retries + per-request timeouts +
// circuit breakers + degraded serving of last-good rows. Naive mode
// reproduces the seed behavior: a 5-attempt hot retry per page and a
// sync that fails whole on any source failure.

// t8Query is the per-round interactive workload: one join touching
// all three integrated relations.
const t8Query = `SELECT p.accession, l.weight, a.affinity
	FROM activities a
	JOIN ligands l ON l.ligand_id = a.ligand_id
	JOIN proteins p ON p.accession = a.protein_id
	WHERE a.affinity >= 6`

const (
	t8Rounds = 120
	t8Step   = time.Second
)

// t8Outcome aggregates one mode's run.
type t8Outcome struct {
	answered, fresh, degraded, failed int
	wasted                            int64
	trips                             int64
	p50, p99                          time.Duration
}

func (o *t8Outcome) availability() float64 {
	return float64(o.answered) / float64(t8Rounds)
}

func t8FaultPlans(seed int64, bundle *source.Bundle) {
	bundle.Proteins.SetFaultPlan(&source.FaultPlan{Seed: seed, Windows: []source.FaultWindow{
		{Mode: source.FaultErrorBurst, Start: 10 * time.Second, End: 20 * time.Second, ErrorPct: 0.9},
	}})
	bundle.Activities.SetFaultPlan(&source.FaultPlan{Seed: seed, Windows: []source.FaultWindow{
		{Mode: source.FaultOutage, Start: 30 * time.Second, End: 66 * time.Second},
	}})
	bundle.Ligands.SetFaultPlan(&source.FaultPlan{Seed: seed, Windows: []source.FaultWindow{
		{Mode: source.FaultBrownout, Start: 80 * time.Second, End: 100 * time.Second, SlowFactor: 40},
	}})
}

func runT8Mode(ctx context.Context, seed int64, resilient bool) (*t8Outcome, error) {
	gen := datagen.DefaultConfig()
	gen.Seed = seed
	gen.NumFamilies = 8
	gen.ProteinsPerFamily = 15
	gen.NumLigands = 40
	gen.ActivityDensity = 0.3
	ds, err := datagen.Generate(gen)
	if err != nil {
		return nil, err
	}
	db, err := store.Open("")
	if err != nil {
		return nil, err
	}
	defer db.Close()

	bundle := source.NewBundle(ds, netsim.Profile4G, seed, true)
	vclock := netsim.NewVirtualClock()
	for _, s := range bundle.All() {
		s.SetClock(vclock)
	}

	im := integrate.NewImporter(db, bundle)
	reg := metrics.NewRegistry()
	if resilient {
		r := integrate.DefaultResilience()
		r.Retry = source.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    4 * time.Second,
			JitterSeed:  seed,
		}
		r.Timeout = time.Second
		r.BreakerThreshold = 5
		r.BreakerCooldown = 10 * time.Second
		r.Clock = vclock
		r.Metrics = reg
		im.EnableResilience(r)
	}

	// Healthy initial sync and engine build before the chaos starts.
	if _, err := im.Sync(ctx); err != nil {
		return nil, fmt.Errorf("T8: initial sync: %w", err)
	}
	eng, err := core.New(db, core.Config{Method: core.TreeNJKmer})
	if err != nil {
		return nil, err
	}
	eng.AttachHealth(im.Health)

	t8FaultPlans(seed, bundle)
	bundle.ResetStats()

	out := &t8Outcome{}
	lats := make([]time.Duration, 0, t8Rounds)
	for i := 1; i <= t8Rounds; i++ {
		vclock.AdvanceTo(time.Duration(i) * t8Step)
		e0 := bundle.TotalStats().Elapsed
		c0 := vclock.Now()
		srep, serr := im.Sync(ctx)
		// Modelled round latency: network time charged plus backoff
		// waiting carried on the virtual clock.
		lat := (bundle.TotalStats().Elapsed - e0) + (vclock.Now() - c0)
		lats = append(lats, lat)
		if serr != nil {
			// Naive mode: the refresh pipeline surfaces an error and
			// the round's interaction fails.
			out.failed++
			continue
		}
		if _, qerr := eng.QueryColumns(ctx, t8Query); qerr != nil {
			out.failed++
			continue
		}
		out.answered++
		if srep.AnyDegraded() {
			out.degraded++
		} else {
			out.fresh++
		}
	}

	// Wasted requests: network exchanges charged that yielded no usable
	// page. In resilient mode the fetch layer counts them (transient
	// failures + timeouts; breaker rejections never touch the wire); in
	// naive mode they are exactly the source-level failures.
	if resilient {
		for _, s := range bundle.All() {
			out.wasted += reg.Counter("source." + s.Name() + ".fetch.wasted").Value()
			if b := im.Breaker(s.Name()); b != nil {
				out.trips += b.Trips()
			}
		}
	} else {
		out.wasted = bundle.TotalStats().Failures
	}

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	out.p50 = lats[len(lats)/2]
	out.p99 = lats[len(lats)*99/100]
	return out, nil
}

// RunT8 measures availability under scripted faults with the
// resilience stack on vs off.
func RunT8(ctx context.Context, seed int64) (*Report, error) {
	res, err := runT8Mode(ctx, seed, true)
	if err != nil {
		return nil, err
	}
	naive, err := runT8Mode(ctx, seed, false)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:     "T8",
		Title:  "Availability under source outage/brownout/error-burst: resilience on vs off",
		Header: []string{"mode", "answered", "fresh", "degraded", "failed", "wasted req", "breaker trips", "p50", "p99"},
	}
	row := func(name string, o *t8Outcome) []string {
		return []string{
			name,
			fmt.Sprintf("%.1f%%", o.availability()*100),
			fmt.Sprintf("%.1f%%", float64(o.fresh)/t8Rounds*100),
			fmt.Sprintf("%.1f%%", float64(o.degraded)/t8Rounds*100),
			fmt.Sprintf("%.1f%%", float64(o.failed)/t8Rounds*100),
			fmt.Sprint(o.wasted),
			fmt.Sprint(o.trips),
			fmtMs(float64(o.p50.Microseconds()) / 1e3),
			fmtMs(float64(o.p99.Microseconds()) / 1e3),
		}
	}
	rep.Rows = append(rep.Rows,
		row("resilient", res),
		row("naive", naive),
	)

	if res.availability() < 0.99 {
		return nil, fmt.Errorf("T8: resilient availability %.3f below 0.99", res.availability())
	}
	if naive.availability() >= res.availability() {
		return nil, fmt.Errorf("T8: naive availability %.3f not below resilient %.3f",
			naive.availability(), res.availability())
	}
	if res.wasted >= naive.wasted {
		return nil, fmt.Errorf("T8: resilient wasted %d requests, naive %d — breaker saved nothing",
			res.wasted, naive.wasted)
	}
	if res.trips == 0 {
		return nil, fmt.Errorf("T8: breaker never tripped under a 36s outage")
	}
	rep.Notes = fmt.Sprintf(
		"36s outage = 30%% of timeline. Resilience answers %.1f%% of rounds (%.1f%% served stale) vs %.1f%% naive; breakers cut wasted requests %d → %d.",
		res.availability()*100, float64(res.degraded)/t8Rounds*100,
		naive.availability()*100, naive.wasted, res.wasted)
	return rep, nil
}
