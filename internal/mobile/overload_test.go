package mobile

import (
	"context"
	"errors"
	"testing"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// heldEngine builds an engine from cfg (which must set Admission with
// MaxConcurrency 1) and acquires the limiter's only slot, so every
// query sheds or queues until the returned release runs. release is
// safe to call more than once.
func heldEngine(t *testing.T, cfg core.Config) (*core.Engine, func()) {
	t.Helper()
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 3
	gen.ProteinsPerFamily = 10
	gen.NumLigands = 12
	ds, err := datagen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 5, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	e, err := core.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	release, err := e.Limiter().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(release)
	return e, release
}

func TestSessionCapRefusesHandshake(t *testing.T) {
	server := NewServer(testEngine(t))
	server.MaxSessions = 1
	server.RetryAfter = 125 * time.Millisecond

	connA, doneA := serveOnce(t, server)
	a, err := Dial(connA, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}

	// A second handshake must be answered with RETRY, not served.
	connB, doneB := serveOnce(t, server)
	_, err = Dial(connB, StrategyLOD, 50)
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("over-cap dial got %v, want BusyError", err)
	}
	if busy.After != 125*time.Millisecond {
		t.Fatalf("retry hint = %v, want the server's RetryAfter", busy.After)
	}
	if !IsBusy(err) {
		t.Fatal("IsBusy(refusal) = false")
	}
	if serr := waitSession(t, doneB); !errors.Is(serr, ErrSessionLimit) {
		t.Fatalf("refused session exited with %v, want ErrSessionLimit", serr)
	}
	if got := server.engine.Metrics.Counter("mobile.sessions_refused").Value(); got != 1 {
		t.Fatalf("sessions_refused = %d", got)
	}
	// Only the accepted session counts.
	if got := server.Sessions(); got != 1 {
		t.Fatalf("Sessions() = %d, want 1", got)
	}

	// Once the active session ends, capacity frees up.
	a.Close()
	connA.Close()
	waitSession(t, doneA)
	connC, doneC := serveOnce(t, server)
	c, err := Dial(connC, StrategyLOD, 50)
	if err != nil {
		t.Fatalf("dial after capacity freed: %v", err)
	}
	c.Close()
	waitSession(t, doneC)
}

// TestRateLimitedRequestGetsRetryMsg: the per-session token bucket
// answers a dry bucket with a RetryMsg whatever the request. For an
// Open it is the one shed path, since an Open needs no admission slot.
func TestRateLimitedRequestGetsRetryMsg(t *testing.T) {
	e := testEngine(t)
	for _, tc := range []struct {
		name string
		send func(c *Client) error
	}{
		{"query", func(c *Client) error { _, err := c.Query("SELECT COUNT(*) FROM proteins"); return err }},
		{"open", func(c *Client) error { _, err := c.Open(e.Root().Name); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vc := netsim.NewVirtualClock()
			server := NewServer(e)
			server.Rate = admission.NewRateLimiter(admission.RateConfig{QPS: 1, Burst: 1, Clock: vc})
			limited := e.Metrics.Counter("mobile.rate_limited").Value()

			conn, done := serveOnce(t, server)
			c, err := Dial(conn, StrategyLOD, 50)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.send(c); err != nil {
				t.Fatalf("first %s (burst token): %v", tc.name, err)
			}
			// Bucket dry: the server answers RETRY with a refill-based hint,
			// and with no retry budget the client surfaces it as BusyError.
			err = tc.send(c)
			var busy *BusyError
			if !errors.As(err, &busy) {
				t.Fatalf("rate-limited %s got %v, want BusyError", tc.name, err)
			}
			if busy.After < 900*time.Millisecond || busy.After > 1100*time.Millisecond {
				t.Fatalf("retry hint = %v, want ≈1s at 1 QPS", busy.After)
			}
			if c.Sheds != 1 {
				t.Fatalf("Sheds = %d, want 1", c.Sheds)
			}
			if got := e.Metrics.Counter("mobile.rate_limited").Value() - limited; got != 1 {
				t.Fatalf("rate_limited counter moved by %d, want 1", got)
			}
			c.Close()
			waitSession(t, done)
		})
	}
}

func TestClientBackoffRetriesShedQuery(t *testing.T) {
	// Hold the engine's only admission slot so queries shed until the
	// test releases it; the client must ride out the sheds on backoff.
	eng := core.DefaultConfig()
	eng.Admission = &admission.Config{MaxConcurrency: 1, MaxQueue: 0}
	e, release := heldEngine(t, eng)
	server := NewServer(e)
	server.RetryAfter = time.Millisecond

	conn, done := serveOnce(t, server)
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	c.Backoff = source.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, JitterSeed: 7}
	c.MaxRetries = 100

	got := make(chan error, 1)
	go func() {
		_, qerr := c.Query("SELECT COUNT(*) FROM proteins")
		got <- qerr
	}()
	// Let at least one shed round-trip happen, then free the slot.
	time.Sleep(20 * time.Millisecond)
	release()
	select {
	case qerr := <-got:
		if qerr != nil {
			t.Fatalf("query after backoff retries: %v", qerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not complete after slot release")
	}
	if c.Sheds == 0 {
		t.Fatal("client never observed a shed")
	}
	c.Close()
	waitSession(t, done)
}

func TestClientZeroRetriesSurfacesBusy(t *testing.T) {
	eng := core.DefaultConfig()
	eng.Admission = &admission.Config{MaxConcurrency: 1, MaxQueue: 0}
	e, release := heldEngine(t, eng)
	defer release()
	server := NewServer(e)

	conn, done := serveOnce(t, server)
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query("SELECT COUNT(*) FROM proteins")
	if !IsBusy(err) {
		t.Fatalf("shed query with MaxRetries=0 got %v, want BusyError", err)
	}
	c.Close()
	waitSession(t, done)
}

// TestOpenNeedsNoAdmissionSlot: an Open runs no statement, so it never
// waits on the engine's limiter. With the only slot held and no queue,
// it still completes with nodes, and nothing is shed.
func TestOpenNeedsNoAdmissionSlot(t *testing.T) {
	eng := core.DefaultConfig()
	eng.Admission = &admission.Config{MaxConcurrency: 1, MaxQueue: 0}
	e, release := heldEngine(t, eng)
	defer release()
	server := NewServer(e)

	conn, done := serveOnce(t, server)
	c, err := Dial(conn, StrategyLODDelta, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(e.Root().Name); err != nil {
		t.Fatalf("Open with the admission slot held: %v", err)
	}
	if len(c.Nodes) == 0 {
		t.Fatal("the Open delivered no nodes")
	}
	if c.Sheds != 0 {
		t.Fatalf("Sheds = %d, want 0", c.Sheds)
	}
	if got := e.Metrics.Counter("mobile.sheds").Value(); got != 0 {
		t.Fatalf("mobile.sheds = %d, want 0", got)
	}
	c.Close()
	waitSession(t, done)
}

// TestDrainFinishesInFlightQuery proves the graceful-drain guarantee:
// a query already dispatched when Drain starts completes and its
// response reaches the client — zero dropped in-flight work — while
// new handshakes are refused.
func TestDrainFinishesInFlightQuery(t *testing.T) {
	eng := core.DefaultConfig()
	eng.Admission = &admission.Config{MaxConcurrency: 1, MaxQueue: 4}
	e, release := heldEngine(t, eng)
	server := NewServer(e)

	conn, done := serveOnce(t, server)
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, qerr := c.Query("SELECT COUNT(*) FROM proteins")
		got <- qerr
	}()
	// Wait until the query is queued behind the held slot — it is then
	// in-flight from the server's perspective (dispatch begun).
	deadline := time.Now().Add(5 * time.Second)
	for e.Limiter().Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- server.Drain(ctx)
	}()
	// Drain must not return while the dispatch is executing.
	select {
	case derr := <-drained:
		t.Fatalf("drain returned %v with a query in flight", derr)
	case <-time.After(30 * time.Millisecond):
	}
	// While draining, new handshakes are refused.
	connB, doneB := serveOnce(t, server)
	if _, err := Dial(connB, StrategyLOD, 50); !IsBusy(err) {
		t.Fatalf("dial during drain got %v, want BusyError", err)
	}
	if serr := waitSession(t, doneB); !errors.Is(serr, ErrDraining) {
		t.Fatalf("refused session exited with %v, want ErrDraining", serr)
	}

	release()
	if qerr := <-got; qerr != nil {
		t.Fatalf("in-flight query dropped by drain: %v", qerr)
	}
	select {
	case derr := <-drained:
		if derr != nil {
			t.Fatalf("drain: %v", derr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not return after last session ended")
	}
	if got := server.ActiveSessions(); got != 0 {
		t.Fatalf("ActiveSessions() after drain = %d", got)
	}
	waitSession(t, done)
	// Drain is idempotent once everything ended.
	if err := server.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestDrainForceClosesOnDeadline(t *testing.T) {
	server := NewServer(testEngine(t))
	conn, done := serveOnce(t, server)
	if _, err := Dial(conn, StrategyLOD, 50); err != nil {
		t.Fatal(err)
	}
	// With an already-cancelled context, drain force-closes whatever
	// remains and reports the context error (or nil if the session
	// unregistered first) — it must never hang.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := server.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("drain: %v", err)
	}
	// The server closed the conn, so the session ends cleanly.
	if serr := waitSession(t, done); serr != nil {
		t.Fatalf("session exit after forced drain: %v", serr)
	}
	if got := server.ActiveSessions(); got != 0 {
		t.Fatalf("ActiveSessions() after forced drain = %d", got)
	}
}
