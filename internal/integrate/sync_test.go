package integrate

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"drugtree/internal/datagen"
	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// syncFixture builds an importer over a fresh in-memory DB with a
// shared virtual clock on every source.
func syncFixture(t *testing.T, resilient bool) (*Importer, *source.Bundle, *netsim.VirtualClock) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NumFamilies = 2
	cfg.ProteinsPerFamily = 8
	cfg.NumLigands = 10
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 3, true)
	clock := netsim.NewVirtualClock()
	for _, s := range bundle.All() {
		s.SetClock(clock)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	im := NewImporter(db, bundle)
	if resilient {
		r := DefaultResilience()
		r.Retry = source.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, JitterSeed: 1}
		r.BreakerCooldown = 5 * time.Second
		r.Clock = clock
		im.EnableResilience(r)
	}
	return im, bundle, clock
}

func outagePlan(from, to time.Duration) *source.FaultPlan {
	return &source.FaultPlan{Windows: []source.FaultWindow{
		{Mode: source.FaultOutage, Start: from, End: to},
	}}
}

func TestSyncReplaceSemantics(t *testing.T) {
	im, _, _ := syncFixture(t, true)
	ctx := context.Background()
	rep1, err := im.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Fresh != 4 || rep1.Degraded != 0 || rep1.Failed != 0 {
		t.Fatalf("first sync: %+v", rep1)
	}
	tb, _ := im.DB.Table(TableProteins)
	n1 := tb.Len()
	// A second sync must not append duplicates (unlike ImportAll).
	if _, err := im.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != n1 {
		t.Fatalf("resync grew proteins %d → %d: replace semantics broken", n1, tb.Len())
	}
}

func TestSyncDegradedServesLastGoodRows(t *testing.T) {
	im, bundle, clock := syncFixture(t, true)
	ctx := context.Background()
	if _, err := im.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	actTable, _ := im.DB.Table(TableActivities)
	goodRows := actTable.Len()
	if goodRows == 0 {
		t.Fatal("no activities imported")
	}

	// ActivityBank goes dark; everything else stays up.
	bundle.Activities.SetFaultPlan(outagePlan(0, time.Hour))
	clock.AdvanceTo(10 * time.Second)
	rep, err := im.Sync(ctx)
	if err != nil {
		t.Fatalf("resilient sync failed whole: %v", err)
	}
	if rep.Fresh != 3 || rep.Degraded != 1 {
		t.Fatalf("report: fresh=%d degraded=%d failed=%d", rep.Fresh, rep.Degraded, rep.Failed)
	}
	if actTable.Len() != goodRows {
		t.Fatalf("degraded source lost rows: %d → %d", goodRows, actTable.Len())
	}

	// Health reflects the degradation with an error and staleness.
	var act *SourceHealth
	for i := range im.Health() {
		h := im.Health()[i]
		if h.Source == bundle.Activities.Name() {
			act = &h
		}
	}
	if act == nil {
		t.Fatal("no health entry for ActivityBank")
	}
	if act.Status != StatusDegraded || !act.Stale || act.LastError == "" {
		t.Fatalf("activity health: %+v", act)
	}
	if act.Rows != goodRows {
		t.Fatalf("health rows = %d, want %d", act.Rows, goodRows)
	}
	if act.Age <= 0 {
		t.Fatalf("stale source has age %v", act.Age)
	}

	// Source recovers: next sync is fresh again and age resets.
	bundle.Activities.SetFaultPlan(nil)
	clock.AdvanceTo(40 * time.Second) // past the breaker cooldown
	rep, err = im.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fresh != 4 {
		t.Fatalf("after recovery: fresh=%d degraded=%d", rep.Fresh, rep.Degraded)
	}
}

func TestSyncFailedWhenNoLastGood(t *testing.T) {
	im, bundle, _ := syncFixture(t, true)
	// Annotations dark from the very first sync: nothing to fall back
	// on, so the status is Failed, but the sync still succeeds and the
	// other three sources import.
	bundle.Annotations.SetFaultPlan(outagePlan(0, time.Hour))
	rep, err := im.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fresh != 3 || rep.Failed != 1 {
		t.Fatalf("report: %+v", rep)
	}
	for _, h := range im.Health() {
		if h.Source == bundle.Annotations.Name() && h.Status != StatusFailed {
			t.Fatalf("annotation status = %v, want failed", h.Status)
		}
	}
}

func TestSyncNaiveFailsWhole(t *testing.T) {
	im, bundle, _ := syncFixture(t, false)
	ctx := context.Background()
	if _, err := im.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	bundle.Activities.SetFaultPlan(outagePlan(0, time.Hour))
	_, err := im.Sync(ctx)
	if err == nil {
		t.Fatal("naive sync succeeded through an outage")
	}
	if !strings.Contains(err.Error(), "ActivityBank") {
		t.Fatalf("error does not name the source: %v", err)
	}
}

func TestSyncDegradedResolversUseServedRows(t *testing.T) {
	// Proteins degraded: activities must still resolve against the
	// last-good protein rows instead of rejecting everything.
	im, bundle, clock := syncFixture(t, true)
	ctx := context.Background()
	if _, err := im.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	bundle.Proteins.SetFaultPlan(outagePlan(0, time.Hour))
	clock.AdvanceTo(10 * time.Second)
	rep, err := im.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != 1 {
		t.Fatalf("degraded=%d", rep.Degraded)
	}
	if rep.RowsRejected != 0 {
		t.Fatalf("%d activity/annotation rows rejected against last-good proteins", rep.RowsRejected)
	}
	actTable, _ := im.DB.Table(TableActivities)
	if actTable.Len() == 0 {
		t.Fatal("activities emptied while proteins degraded")
	}
}

func TestSyncHealthConcurrentReaders(t *testing.T) {
	// Health() is read by HTTP/mobile handlers while Sync runs; `go
	// test -race` guards the shared health map.
	im, bundle, clock := syncFixture(t, true)
	ctx := context.Background()
	bundle.Activities.SetFaultPlan(&source.FaultPlan{Seed: 5, Windows: []source.FaultWindow{
		{Mode: source.FaultErrorBurst, Start: 0, End: time.Hour, ErrorPct: 0.5},
	}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				im.Health()
			}
		}
	}()
	for i := 0; i < 5; i++ {
		clock.AdvanceTo(time.Duration(i) * time.Second)
		if _, err := im.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// stallSource wraps a source so its first Fetch parks until released —
// a remote bank that has stopped answering mid-transfer.
type stallSource struct {
	source.Source
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *stallSource) Fetch(ctx context.Context, req source.Request) (*source.Result, error) {
	s.once.Do(func() { close(s.entered) })
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Source.Fetch(ctx, req)
}

// TestHealthNotBlockedBySlowSync pins the critical-section contract:
// Sync's network-speed work (fetching, diffing) runs outside the
// importer lock, which is held only for the O(changed rows) publish
// and health update. A Health() probe — the mobile client's freshness
// endpoint — must answer promptly even while Sync is parked inside a
// stalled source fetch. Before the fix, Sync held the lock around the
// fetches and this watchdog fired.
func TestHealthNotBlockedBySlowSync(t *testing.T) {
	im, bundle, _ := syncFixture(t, true)
	ctx := context.Background()
	// Seed last-good state so the stalled round has health to report.
	if _, err := im.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	stall := &stallSource{
		Source:  bundle.Proteins,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	bundle.Proteins = stall
	syncDone := make(chan error, 1)
	go func() {
		_, err := im.Sync(ctx)
		syncDone <- err
	}()
	select {
	case <-stall.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("sync never reached the stalled source")
	}

	// Sync is now parked mid-fetch. Health must not be.
	healthDone := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			if got := len(im.Health()); got == 0 {
				t.Error("health empty during sync")
				break
			}
		}
		close(healthDone)
	}()
	select {
	case <-healthDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Health() blocked behind a stalled Sync fetch")
	}

	close(stall.release)
	if err := <-syncDone; err != nil {
		t.Fatal(err)
	}
}

// TestSyncUnchangedSourceKeepsVersion asserts resync is a no-op at the
// version level when nothing changed: the diff produces an empty delta,
// no table gains a commit version, and statement-cache entries keyed on
// per-table versions stay valid.
func TestSyncUnchangedSourceKeepsVersion(t *testing.T) {
	im, _, _ := syncFixture(t, true)
	ctx := context.Background()
	if _, err := im.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	before := tableVersions(im.DB)

	rep, err := im.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsInserted != 0 || rep.RowsDeleted != 0 {
		t.Fatalf("unchanged resync produced a delta: +%d -%d", rep.RowsInserted, rep.RowsDeleted)
	}
	for name, v := range tableVersions(im.DB) {
		if before[name] != v {
			t.Fatalf("table %s version moved %d → %d on an unchanged resync", name, before[name], v)
		}
	}
}
