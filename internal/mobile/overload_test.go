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

func TestRateLimitedRequestGetsRetryMsg(t *testing.T) {
	vc := netsim.NewVirtualClock()
	server := NewServer(testEngine(t))
	server.Rate = admission.NewRateLimiter(admission.RateConfig{QPS: 1, Burst: 1, Clock: vc})

	conn, done := serveOnce(t, server)
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(*) FROM proteins"); err != nil {
		t.Fatalf("first query (burst token): %v", err)
	}
	// Bucket dry: the server answers RETRY with a refill-based hint,
	// and with no retry budget the client surfaces it as BusyError.
	_, err = c.Query("SELECT COUNT(*) FROM proteins")
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("rate-limited query got %v, want BusyError", err)
	}
	if busy.After < 900*time.Millisecond || busy.After > 1100*time.Millisecond {
		t.Fatalf("retry hint = %v, want ≈1s at 1 QPS", busy.After)
	}
	if c.Sheds != 1 {
		t.Fatalf("Sheds = %d, want 1", c.Sheds)
	}
	if got := server.engine.Metrics.Counter("mobile.rate_limited").Value(); got != 1 {
		t.Fatalf("rate_limited counter = %d", got)
	}
	c.Close()
	waitSession(t, done)
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

// TestOpenShedSurfacesBusy: an Open whose cache fill the engine's
// limiter sheds is answered with a RetryMsg carrying the limiter's
// hint, not an error, and counts as a shed on both ends.
func TestOpenShedSurfacesBusy(t *testing.T) {
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
	_, err = c.Open(e.Root().Name)
	var busy *BusyError
	if !errors.As(err, &busy) || busy.After <= 0 {
		t.Fatalf("shed Open with MaxRetries=0 got %v, want BusyError with a retry hint", err)
	}
	if c.Sheds != 1 {
		t.Fatalf("Sheds = %d, want 1", c.Sheds)
	}
	if got := e.Metrics.Counter("mobile.sheds").Value(); got != 1 {
		t.Fatalf("mobile.sheds = %d, want 1", got)
	}
	c.Close()
	waitSession(t, done)
}

// TestClientBackoffRetriesShedOpen: with retries on, an Open rides out
// the sheds on backoff and completes once the slot is released.
func TestClientBackoffRetriesShedOpen(t *testing.T) {
	eng := core.DefaultConfig()
	eng.Admission = &admission.Config{MaxConcurrency: 1, MaxQueue: 0}
	e, release := heldEngine(t, eng)
	server := NewServer(e)
	server.RetryAfter = time.Millisecond

	conn, done := serveOnce(t, server)
	c, err := Dial(conn, StrategyLODDelta, 50)
	if err != nil {
		t.Fatal(err)
	}
	c.Backoff = source.RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, JitterSeed: 7}
	c.MaxRetries = 100
	got := make(chan error, 1)
	go func() {
		_, oerr := c.Open(e.Root().Name)
		got <- oerr
	}()
	// Free the slot once the server has shed the Open at least once.
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics.Counter("mobile.sheds").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the Open was never shed")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	select {
	case oerr := <-got:
		if oerr != nil {
			t.Fatalf("Open after backoff retries: %v", oerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Open did not complete after slot release")
	}
	if c.Sheds == 0 {
		t.Fatal("client never observed a shed")
	}
	if len(c.Nodes) == 0 {
		t.Fatal("the completed Open delivered no nodes")
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
