// Package admission is DrugTree's overload-protection layer: a
// weighted concurrency limiter with a fixed limit and a bounded FIFO
// wait queue, deadline-aware load shedding (reject immediately when the
// caller's deadline cannot survive the predicted queue wait),
// per-client token-bucket rate limiting, and graceful drain.
//
// The poster's complaint is interactive lag; the ROADMAP's north star
// is heavy traffic. Without admission control an offered load past
// saturation piles unbounded work onto the engine and collapses
// goodput exactly when load peaks (experiment T9 measures this). The
// limiter bounds concurrency and queueing so the server keeps serving
// near-peak goodput with bounded p99, answering the overflow with
// machine-readable retry hints instead of silence.
//
// All timing runs on an injectable netsim.Clock, so experiments drive
// the real limiter deterministically on a virtual timeline.
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"drugtree/internal/metrics"
	"drugtree/internal/netsim"
)

// Shed reasons. Every rejection wraps one of these inside a
// *Rejection carrying the retry hint.
var (
	// ErrQueueFull means concurrency and the wait queue are both at
	// capacity.
	ErrQueueFull = errors.New("admission: queue full")
	// ErrDeadline means the caller's deadline cannot survive the
	// predicted queue wait, so queueing would only waste capacity.
	ErrDeadline = errors.New("admission: deadline cannot be met")
	// ErrDraining means the limiter is shutting down gracefully.
	ErrDraining = errors.New("admission: draining")
	// ErrRateLimited means the client exceeded its token bucket.
	ErrRateLimited = errors.New("admission: rate limited")
)

// Rejection is a shed decision: the reason plus a suggested minimum
// wait before retrying, sized from the limiter's service estimate so
// clients back off long enough for capacity to free up.
type Rejection struct {
	Err        error
	RetryAfter time.Duration
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("%v (retry after %v)", r.Err, r.RetryAfter)
}

// Unwrap lets errors.Is(err, ErrQueueFull) etc. see the reason.
func (r *Rejection) Unwrap() error { return r.Err }

// IsShed reports whether err is (or wraps) an admission rejection of
// any kind — the signal serving layers translate into RetryMsg / 429.
func IsShed(err error) bool {
	var rej *Rejection
	return errors.As(err, &rej)
}

// RetryAfterHint extracts the rejection's retry hint from err, or def
// when err carries none.
func RetryAfterHint(err error, def time.Duration) time.Duration {
	var rej *Rejection
	if errors.As(err, &rej) && rej.RetryAfter > 0 {
		return rej.RetryAfter
	}
	return def
}

// deadlineKey carries an absolute deadline on the limiter clock's
// timeline through a context.
type deadlineKey struct{}

// WithDeadlineAt attaches an absolute deadline, expressed on the
// limiter clock's timeline, to ctx. Virtual-clock experiments cannot
// use context.WithDeadline (its deadline is wall time), so this is
// the deterministic path into deadline-aware shedding; it takes
// precedence over ctx.Deadline().
func WithDeadlineAt(ctx context.Context, at time.Duration) context.Context {
	return context.WithValue(ctx, deadlineKey{}, at)
}

func deadlineAt(ctx context.Context) (time.Duration, bool) {
	at, ok := ctx.Value(deadlineKey{}).(time.Duration)
	return at, ok
}

// Config tunes a Limiter.
type Config struct {
	// Name prefixes the limiter's metric names ("admission.<name>.*").
	Name string
	// MaxConcurrency is the admitted-weight capacity (default 4).
	MaxConcurrency int
	// MaxQueue bounds the number of queued waiters; 0 disables
	// queueing entirely (admit or shed, never wait).
	MaxQueue int
	// Clock supplies time; nil uses the wall clock. Experiments inject
	// a netsim.VirtualClock.
	Clock netsim.Clock
	// Metrics, when set, receives admission counters and the
	// queue-wait histogram.
	Metrics *metrics.Registry
}

// retryHint is the rejection hint used before the limiter has a
// service-time estimate.
const retryHint = 50 * time.Millisecond

// Waiter lifecycle states (guarded by Limiter.mu).
const (
	wQueued = iota
	wAdmitted
	wShed
	wCancelled
)

// waiter is one pending admission.
type waiter struct {
	weight     int
	enqueuedAt time.Duration
	// deadline is absolute on the limiter clock's timeline; 0 = none.
	deadline time.Duration
	state    int
	rej      error
	// admit delivers the release function on admission, or nil when
	// the waiter is shed (see Ticket.Err for the reason). Buffered so
	// the limiter never blocks delivering it.
	admit chan func()
}

// Limiter is a weighted concurrency limiter with a bounded wait
// queue, deadline-aware shedding, and graceful drain. The zero value
// is not usable; construct with NewLimiter.
type Limiter struct {
	cfg   Config
	clock netsim.Clock

	mu       sync.Mutex
	inflight int // admitted weight
	queue    []*waiter
	draining bool
	drained  chan struct{} // lazily made by Drain; closed at idle
	// ewmaSvc estimates service time per unit weight (EWMA over
	// completions); 0 until the first completion.
	ewmaSvc time.Duration
	stats   Stats

	// Metric handles (nil when no registry is configured).
	mAdmitted, mQueueFull, mDeadline, mDraining, mExpired *metrics.Counter
	mQueueWait                                            *metrics.Histogram
}

// Stats is a point-in-time snapshot of the limiter.
type Stats struct {
	// Inflight is the currently admitted weight.
	Inflight int
	// Queued is the number of waiters in the queue.
	Queued int
	// Draining reports whether the limiter has stopped admitting.
	Draining bool
	// Admitted counts admissions; the Shed* fields count rejections
	// by reason; Expired counts waiters whose deadline lapsed while
	// queued.
	Admitted, ShedQueueFull, ShedDeadline, ShedDraining, Expired int64
}

// NewLimiter builds a limiter from cfg, applying defaults.
func NewLimiter(cfg Config) *Limiter {
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = 4
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.Clock == nil {
		cfg.Clock = netsim.NewWallClock()
	}
	if cfg.Name == "" {
		cfg.Name = "limiter"
	}
	l := &Limiter{cfg: cfg, clock: cfg.Clock}
	if m := cfg.Metrics; m != nil {
		p := "admission." + cfg.Name
		l.mAdmitted = m.Counter(p + ".admitted")
		l.mQueueFull = m.Counter(p + ".shed.queue_full")
		l.mDeadline = m.Counter(p + ".shed.deadline")
		l.mDraining = m.Counter(p + ".shed.draining")
		l.mExpired = m.Counter(p + ".shed.expired")
		l.mQueueWait = m.Histogram(p + ".queue_wait")
	}
	return l
}

func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Ticket is a pending admission started with Begin. Exactly one value
// arrives on C: the release function when the request is admitted, or
// nil when the limiter sheds it (Err then carries the reason). Cancel
// abandons the ticket; after admission it releases the slot.
type Ticket struct {
	l *Limiter
	w *waiter
}

// C delivers the outcome: a non-nil release function (call it exactly
// once when the work completes) or nil when shed.
func (t *Ticket) C() <-chan func() { return t.w.admit }

// Err returns the shed reason after C delivered nil.
func (t *Ticket) Err() error {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	return t.w.rej
}

// Cancel abandons the ticket: a queued waiter is removed, an
// already-admitted one has its slot released. Safe to call at most
// once, from the goroutine that owns the ticket.
func (t *Ticket) Cancel() {
	l, w := t.l, t.w
	l.mu.Lock()
	switch w.state {
	case wQueued:
		for i, q := range l.queue {
			if q == w {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				break
			}
		}
		w.state = wCancelled
		ch := l.drainedChLocked()
		l.mu.Unlock()
		if ch != nil {
			close(ch)
		}
	case wAdmitted:
		l.mu.Unlock()
		// The release fn is in flight on the buffered channel (or
		// already there); consume and release the slot.
		if rel := <-w.admit; rel != nil {
			rel()
		}
	default: // shed or already cancelled: clear any pending delivery.
		l.mu.Unlock()
		select {
		case <-w.admit:
		default:
		}
	}
}

// drainedChLocked returns the drained channel to close when a drain
// is pending and the limiter just went idle, nilling it so it closes
// exactly once. Caller holds l.mu and must close outside it.
func (l *Limiter) drainedChLocked() chan struct{} {
	if l.draining && l.inflight == 0 && len(l.queue) == 0 && l.drained != nil {
		ch := l.drained
		l.drained = nil
		return ch
	}
	return nil
}

// Begin requests admission for weight units without blocking. It
// returns a Ticket whose channel resolves to a release function (or
// nil on shed), or an immediate rejection error. Experiments use it
// to drive the limiter from a single-threaded event loop; most
// callers want Acquire.
func (l *Limiter) Begin(ctx context.Context, weight int) (*Ticket, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if weight <= 0 {
		weight = 1
	}
	now := l.clock.Now()
	dl, hasDL := l.resolveDeadline(ctx, now)

	w := &waiter{weight: weight, enqueuedAt: now, admit: make(chan func(), 1)}
	if hasDL {
		w.deadline = dl
	}

	l.mu.Lock()
	if l.draining {
		l.stats.ShedDraining++
		hint := l.retryHintLocked(weight)
		l.mu.Unlock()
		inc(l.mDraining)
		return nil, &Rejection{Err: ErrDraining, RetryAfter: hint}
	}
	if l.canAdmitNowLocked(weight) {
		l.inflight += weight
		l.stats.Admitted++
		w.state = wAdmitted
		rel := l.releaser(weight, now)
		l.mu.Unlock()
		inc(l.mAdmitted)
		w.admit <- rel
		return &Ticket{l: l, w: w}, nil
	}
	if len(l.queue) >= l.cfg.MaxQueue {
		l.stats.ShedQueueFull++
		hint := l.retryHintLocked(weight)
		l.mu.Unlock()
		inc(l.mQueueFull)
		return nil, &Rejection{Err: ErrQueueFull, RetryAfter: hint}
	}
	if hasDL {
		// Predicted completion = queue wait ahead of us + our own
		// service; shed now if it lands past the deadline, instead of
		// wasting a queue slot on work that will time out anyway.
		eta := now + l.predictWaitLocked(weight) + l.ewmaSvc*time.Duration(weight)
		if dl <= now || (l.ewmaSvc > 0 && eta > dl) {
			l.stats.ShedDeadline++
			hint := l.retryHintLocked(weight)
			l.mu.Unlock()
			inc(l.mDeadline)
			return nil, &Rejection{Err: ErrDeadline, RetryAfter: hint}
		}
	}
	l.queue = append(l.queue, w)
	l.mu.Unlock()
	return &Ticket{l: l, w: w}, nil
}

// Acquire blocks until the request is admitted, shed, or ctx is done.
// On success it returns the release function, which the caller must
// invoke exactly once when the work completes.
func (l *Limiter) Acquire(ctx context.Context, weight int) (func(), error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t, err := l.Begin(ctx, weight)
	if err != nil {
		return nil, err
	}
	select {
	case rel := <-t.C():
		if rel == nil {
			return nil, t.Err()
		}
		return rel, nil
	case <-ctx.Done():
		t.Cancel()
		return nil, ctx.Err()
	}
}

// Drain stops admission, sheds every queued waiter, and waits for
// in-flight work to finish. The wait is bounded by ctx: when it
// expires the drain returns the context error with work still in
// flight (the caller decides whether to force-quit). Drain is
// idempotent; the limiter stays draining forever after.
func (l *Limiter) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	l.mu.Lock()
	l.draining = true
	shed := l.queue
	l.queue = nil
	for _, w := range shed {
		w.state = wShed
		w.rej = &Rejection{Err: ErrDraining}
		l.stats.ShedDraining++
	}
	idle := l.inflight == 0
	var ch chan struct{}
	if !idle {
		if l.drained == nil {
			l.drained = make(chan struct{})
		}
		ch = l.drained
	}
	l.mu.Unlock()
	for _, w := range shed {
		inc(l.mDraining)
		w.admit <- nil
	}
	if idle {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		inflight := l.inflight
		l.mu.Unlock()
		return fmt.Errorf("admission: drain aborted with %d weight in flight: %w", inflight, ctx.Err())
	}
}

// Stats snapshots the limiter.
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Inflight = l.inflight
	s.Queued = len(l.queue)
	s.Draining = l.draining
	return s
}

// canAdmitNowLocked reports whether weight fits right now. A newcomer
// never overtakes the queue, even when it would fit where the head
// waiter does not.
func (l *Limiter) canAdmitNowLocked(weight int) bool {
	return len(l.queue) == 0 && l.inflight+weight <= l.cfg.MaxConcurrency
}

// predictWaitLocked estimates the queue wait for a new waiter of the
// given weight: the weight ahead of it served at the limit's
// parallelism, priced at the EWMA service time. A heuristic, not a
// queueing model — it only needs to be right about "can this deadline
// possibly survive".
func (l *Limiter) predictWaitLocked(weight int) time.Duration {
	if l.ewmaSvc == 0 {
		return 0
	}
	ahead := 0
	for _, w := range l.queue {
		ahead += w.weight
	}
	return l.ewmaSvc * time.Duration(ahead+weight) / time.Duration(l.cfg.MaxConcurrency)
}

// retryHintLocked sizes a rejection's retry hint: roughly when the
// present queue should clear, with a floor before any estimate.
func (l *Limiter) retryHintLocked(weight int) time.Duration {
	if hint := l.predictWaitLocked(weight); hint > 0 {
		return hint
	}
	return retryHint
}

// releaser builds the one-shot release function for an admission.
func (l *Limiter) releaser(weight int, admittedAt time.Duration) func() {
	var once sync.Once
	return func() {
		once.Do(func() { l.finish(weight, admittedAt) })
	}
}

// wakeEntry pairs a waiter with what to deliver on its channel.
type wakeEntry struct {
	w   *waiter
	rel func() // nil = shed
}

// finish returns weight to the pool, folds the observed service time
// into the estimator, and admits queued waiters.
// Channel deliveries happen strictly outside l.mu (the lockcheck
// invariant: no channel operations while a mutex is held).
func (l *Limiter) finish(weight int, admittedAt time.Duration) {
	now := l.clock.Now()
	svc := now - admittedAt

	l.mu.Lock()
	l.inflight -= weight
	perUnit := svc / time.Duration(weight)
	if l.ewmaSvc == 0 {
		l.ewmaSvc = perUnit
	} else {
		// EWMA with alpha = 1/8: smooth enough to ride out one slow
		// query, fresh enough to track a shifting workload.
		l.ewmaSvc += (perUnit - l.ewmaSvc) / 8
	}
	wake := l.admitQueuedLocked(now)
	ch := l.drainedChLocked()
	l.mu.Unlock()

	for _, e := range wake {
		if e.rel == nil {
			inc(l.mExpired)
		} else {
			inc(l.mAdmitted)
		}
		e.w.admit <- e.rel
	}
	if ch != nil {
		close(ch)
	}
}

// admitQueuedLocked pops waiters oldest-first while they fit,
// shedding any whose deadline lapsed in the queue. Returns the
// deliveries to perform after unlocking.
func (l *Limiter) admitQueuedLocked(now time.Duration) []wakeEntry {
	var wake []wakeEntry
	for len(l.queue) > 0 {
		w := l.queue[0]
		if w.deadline > 0 && now > w.deadline {
			// Expired while queued: admitting it would burn capacity
			// on work whose caller already gave up.
			l.queue = append(l.queue[:0], l.queue[1:]...)
			w.state = wShed
			w.rej = &Rejection{Err: ErrDeadline, RetryAfter: l.retryHintLocked(w.weight)}
			l.stats.Expired++
			wake = append(wake, wakeEntry{w: w})
			continue
		}
		if l.inflight+w.weight > l.cfg.MaxConcurrency {
			break
		}
		l.queue = append(l.queue[:0], l.queue[1:]...)
		l.inflight += w.weight
		l.stats.Admitted++
		w.state = wAdmitted
		if l.mQueueWait != nil {
			l.mQueueWait.Record(now - w.enqueuedAt)
		}
		wake = append(wake, wakeEntry{w: w, rel: l.releaser(w.weight, now)})
	}
	return wake
}

// resolveDeadline maps the caller's deadline onto the limiter clock's
// timeline: an explicit WithDeadlineAt wins; otherwise a context
// deadline is converted from wall time via the shim in wallclock.go.
func (l *Limiter) resolveDeadline(ctx context.Context, now time.Duration) (time.Duration, bool) {
	if at, ok := deadlineAt(ctx); ok {
		return at, true
	}
	if remaining, ok := wallRemaining(ctx); ok {
		return now + remaining, true
	}
	return 0, false
}
