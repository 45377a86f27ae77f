package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drugtree/internal/metrics"
	"drugtree/internal/netsim"
)

// take asserts a ticket resolved to an admission and returns the
// release function.
func take(t *testing.T, tk *Ticket) func() {
	t.Helper()
	select {
	case rel := <-tk.C():
		if rel == nil {
			t.Fatalf("ticket shed: %v", tk.Err())
		}
		return rel
	default:
		t.Fatal("ticket not resolved")
		return nil
	}
}

// pending asserts a ticket has not resolved yet.
func pending(t *testing.T, tk *Ticket) {
	t.Helper()
	select {
	case rel := <-tk.C():
		t.Fatalf("ticket resolved early (rel=%v err=%v)", rel != nil, tk.Err())
	default:
	}
}

// shedded asserts a ticket resolved to a shed and returns the reason.
func sheddedErr(t *testing.T, tk *Ticket) error {
	t.Helper()
	select {
	case rel := <-tk.C():
		if rel != nil {
			rel()
			t.Fatal("ticket admitted, want shed")
		}
		return tk.Err()
	default:
		t.Fatal("ticket not resolved")
		return nil
	}
}

func TestLimiterAdmitAndQueue(t *testing.T) {
	vc := netsim.NewVirtualClock()
	reg := metrics.NewRegistry()
	l := NewLimiter(Config{Name: "t", MaxConcurrency: 2, MaxQueue: 4, Clock: vc, Metrics: reg})
	ctx := context.Background()

	t1, err := l.Begin(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := l.Begin(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel1, rel2 := take(t, t1), take(t, t2)

	t3, err := l.Begin(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	pending(t, t3)
	if s := l.Stats(); s.Inflight != 2 || s.Queued != 1 || s.Admitted != 2 {
		t.Fatalf("stats = %+v", s)
	}

	vc.Sleep(10 * time.Millisecond)
	rel1()
	rel3 := take(t, t3)
	if s := l.Stats(); s.Inflight != 2 || s.Queued != 0 || s.Admitted != 3 {
		t.Fatalf("stats after wake = %+v", s)
	}
	rel2()
	rel3()
	rel3() // double release must be a no-op
	if s := l.Stats(); s.Inflight != 0 {
		t.Fatalf("inflight = %d after all releases", s.Inflight)
	}
	if got := reg.Counter("admission.t.admitted").Value(); got != 3 {
		t.Fatalf("admitted counter = %d", got)
	}
}

func TestLimiterQueueBound(t *testing.T) {
	vc := netsim.NewVirtualClock()
	l := NewLimiter(Config{MaxConcurrency: 1, MaxQueue: 2, Clock: vc})
	ctx := context.Background()

	t1, _ := l.Begin(ctx, 1)
	rel := take(t, t1)
	q1, _ := l.Begin(ctx, 1)
	q2, _ := l.Begin(ctx, 1)
	pending(t, q1)
	pending(t, q2)

	_, err := l.Begin(ctx, 1)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third waiter got %v, want ErrQueueFull", err)
	}
	if !IsShed(err) {
		t.Fatal("queue-full rejection not recognized by IsShed")
	}
	if hint := RetryAfterHint(err, 0); hint <= 0 {
		t.Fatalf("rejection hint = %v, want > 0", hint)
	}
	rel()
	take(t, q1)()
	take(t, q2)()
}

func TestLimiterZeroQueueShedsImmediately(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrency: 1, MaxQueue: 0, Clock: netsim.NewVirtualClock()})
	t1, _ := l.Begin(context.Background(), 1)
	rel := take(t, t1)
	if _, err := l.Begin(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull with MaxQueue=0", err)
	}
	rel()
}

func TestLimiterFIFOOrder(t *testing.T) {
	vc := netsim.NewVirtualClock()
	l := NewLimiter(Config{MaxConcurrency: 1, MaxQueue: 8, Clock: vc})
	ctx := context.Background()

	first, _ := l.Begin(ctx, 1)
	rel := take(t, first)
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := l.Begin(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	var order []int
	for len(order) < 3 {
		rel()
		resolved := false
		for i, tk := range tickets {
			if tk == nil {
				continue
			}
			select {
			case r := <-tk.C():
				if r == nil {
					t.Fatalf("waiter %d shed: %v", i, tk.Err())
				}
				rel = r
				order = append(order, i)
				tickets[i] = nil
				resolved = true
			default:
			}
		}
		if !resolved {
			t.Fatal("release admitted nobody")
		}
	}
	rel()
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("admission order = %v, want [0 1 2]", order)
	}
}

// A newcomer never overtakes the queue, even when capacity frees for
// a light request a heavy head-of-queue waiter cannot use.
func TestFIFONeverOvertakes(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrency: 2, MaxQueue: 8, Clock: netsim.NewVirtualClock()})
	ctx := context.Background()
	a, _ := l.Begin(ctx, 1)
	relA := take(t, a)
	heavy, _ := l.Begin(ctx, 2) // queued: 1+2 exceeds the limit
	pending(t, heavy)
	// One unit of capacity is free, which heavy cannot use; the
	// newcomer would fit but queues behind heavy.
	narrow, _ := l.Begin(ctx, 1)
	pending(t, narrow)
	// Unwind: freeing A admits heavy; freeing heavy admits narrow.
	relA()
	take(t, heavy)()
	take(t, narrow)()
}

func TestLimiterDeadlineShed(t *testing.T) {
	vc := netsim.NewVirtualClock()
	l := NewLimiter(Config{MaxConcurrency: 1, MaxQueue: 8, Clock: vc})
	ctx := context.Background()

	// Teach the estimator: one request served in 10ms.
	t1, _ := l.Begin(ctx, 1)
	rel := take(t, t1)
	vc.Sleep(10 * time.Millisecond)
	rel()

	// Occupy capacity and half the queue.
	hold, _ := l.Begin(ctx, 1)
	relHold := take(t, hold)
	q1, _ := l.Begin(ctx, 1)
	q2, _ := l.Begin(ctx, 1)

	// Predicted completion for a 4th concurrent request ≈ 3 queued
	// services + its own ≈ 40ms; a 5ms budget cannot survive it.
	tight := WithDeadlineAt(ctx, vc.Now()+5*time.Millisecond)
	_, err := l.Begin(tight, 1)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("tight deadline got %v, want ErrDeadline", err)
	}
	// A roomy budget queues fine.
	roomy := WithDeadlineAt(ctx, vc.Now()+time.Second)
	q3, err := l.Begin(roomy, 1)
	if err != nil {
		t.Fatalf("roomy deadline rejected: %v", err)
	}
	relHold()
	for _, tk := range []*Ticket{q1, q2, q3} {
		vc.Sleep(10 * time.Millisecond)
		take(t, tk)()
	}
	if s := l.Stats(); s.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d", s.ShedDeadline)
	}
}

func TestLimiterExpiredInQueueShed(t *testing.T) {
	vc := netsim.NewVirtualClock()
	l := NewLimiter(Config{MaxConcurrency: 1, MaxQueue: 8, Clock: vc})
	ctx := context.Background()

	hold, _ := l.Begin(ctx, 1)
	rel := take(t, hold)
	// Queued with a deadline that lapses while waiting (no service
	// estimate yet, so the arrival-time shed cannot catch it).
	short, _ := l.Begin(WithDeadlineAt(ctx, vc.Now()+5*time.Millisecond), 1)
	pending(t, short)
	vc.Sleep(50 * time.Millisecond)
	rel()
	err := sheddedErr(t, short)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired waiter got %v, want ErrDeadline", err)
	}
	if s := l.Stats(); s.Expired != 1 {
		t.Fatalf("Expired = %d", s.Expired)
	}
	// The expired waiter must not have consumed the freed capacity.
	next, _ := l.Begin(ctx, 1)
	take(t, next)()
}

func TestLimiterWallClockContextDeadline(t *testing.T) {
	// A real (wall-clock) context deadline feeds the same shedding
	// path through the wallRemaining shim.
	l := NewLimiter(Config{MaxConcurrency: 1, MaxQueue: 8})
	ctx := context.Background()
	t1, _ := l.Begin(ctx, 1)
	rel := take(t, t1)
	time.Sleep(2 * time.Millisecond)
	rel() // seed the estimator with ~2ms service

	hold, _ := l.Begin(ctx, 1)
	relHold := take(t, hold)
	tight, cancel := context.WithDeadline(ctx, time.Now().Add(time.Millisecond))
	defer cancel()
	// Either the shim sheds it (predicted wait ≈ 4ms > 1ms budget) or
	// the context expired on the way in; both must refuse admission.
	if _, err := l.Begin(tight, 1); err == nil {
		t.Fatal("un-meetable wall deadline admitted")
	}
	relHold()
}

func TestLimiterDrain(t *testing.T) {
	vc := netsim.NewVirtualClock()
	l := NewLimiter(Config{MaxConcurrency: 2, MaxQueue: 4, Clock: vc})
	ctx := context.Background()

	a, _ := l.Begin(ctx, 1)
	b, _ := l.Begin(ctx, 1)
	relA, relB := take(t, a), take(t, b)
	queued, _ := l.Begin(ctx, 1)
	pending(t, queued)

	drained := make(chan error, 1)
	go func() { drained <- l.Drain(context.Background()) }()

	// The queued waiter is shed with ErrDraining...
	giveUp := time.Now().Add(5 * time.Second)
	for {
		select {
		case rel := <-queued.C():
			if rel != nil {
				t.Fatal("queued waiter admitted during drain")
			}
		default:
			if time.Now().After(giveUp) {
				t.Fatal("queued waiter never shed")
			}
			continue
		}
		break
	}
	if err := queued.Err(); !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter reason = %v", err)
	}
	// ...new arrivals are refused...
	if _, err := l.Begin(ctx, 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("begin during drain = %v", err)
	}
	// ...and Drain waits for both in-flight releases: zero dropped.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with work in flight", err)
	case <-time.After(10 * time.Millisecond):
	}
	relA()
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with one release outstanding", err)
	case <-time.After(10 * time.Millisecond):
	}
	relB()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed")
	}
	// Idempotent once idle.
	if err := l.Drain(context.Background()); err != nil {
		t.Fatalf("second drain = %v", err)
	}
}

func TestLimiterDrainDeadline(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrency: 1, Clock: netsim.NewVirtualClock()})
	tk, _ := l.Begin(context.Background(), 1)
	rel := take(t, tk)
	dctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := l.Drain(dctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("bounded drain = %v, want ctx error", err)
	}
	rel()
	// After the straggler finishes, a second drain observes idle.
	if err := l.Drain(context.Background()); err != nil {
		t.Fatalf("drain after release = %v", err)
	}
}

func TestAcquireCancelWhileQueued(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrency: 1, MaxQueue: 4, Clock: netsim.NewVirtualClock()})
	hold, _ := l.Begin(context.Background(), 1)
	rel := take(t, hold)

	cctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := l.Acquire(cctx, 1)
		got <- err
	}()
	// Wait until the acquire is queued, then cancel it.
	for l.Stats().Queued == 0 {
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v", err)
	}
	if s := l.Stats(); s.Queued != 0 {
		t.Fatalf("cancelled waiter still queued: %+v", s)
	}
	// The slot is intact: release and reacquire.
	rel()
	release, err := l.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	release()
}

// The race certificate: concurrent acquire/release with the limit
// invariant checked at every admission.
func TestLimiterConcurrentInvariant(t *testing.T) {
	const limit, workers, rounds = 4, 16, 50
	l := NewLimiter(Config{MaxConcurrency: limit, MaxQueue: workers})
	var inflight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rel, err := l.Acquire(ctx, 1)
				if err != nil {
					// Queue overflow under contention is a valid shed.
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("acquire: %v", err)
						return
					}
					continue
				}
				cur := inflight.Add(1)
				for {
					prev := maxSeen.Load()
					if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
						break
					}
				}
				time.Sleep(time.Microsecond)
				inflight.Add(-1)
				rel()
			}
		}()
	}
	wg.Wait()
	if got := maxSeen.Load(); got > limit {
		t.Fatalf("observed %d concurrent admissions, limit %d", got, limit)
	}
	if s := l.Stats(); s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("limiter not idle after workers drained: %+v", s)
	}
}

// Drain racing live traffic: every admitted request completes (zero
// dropped), every unadmitted one is shed with a typed reason.
func TestLimiterDrainUnderLoad(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrency: 2, MaxQueue: 8})
	var admitted, completed, shed atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				rel, err := l.Acquire(ctx, 1)
				if err != nil {
					if !IsShed(err) {
						t.Errorf("non-shed acquire error: %v", err)
					}
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				time.Sleep(50 * time.Microsecond)
				completed.Add(1)
				rel()
			}
		}()
	}
	close(start)
	time.Sleep(500 * time.Microsecond)
	if err := l.Drain(context.Background()); err != nil {
		t.Fatalf("drain = %v", err)
	}
	wg.Wait()
	if admitted.Load() != completed.Load() {
		t.Fatalf("admitted %d but completed %d — drain dropped in-flight work", admitted.Load(), completed.Load())
	}
	if shed.Load() == 0 {
		t.Fatal("drain under load shed nothing (expected ErrDraining rejections)")
	}
}

func TestRejectionErrorText(t *testing.T) {
	err := &Rejection{Err: ErrQueueFull, RetryAfter: 50 * time.Millisecond}
	if err.Error() == "" || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("rejection: %v", err)
	}
	if IsShed(errors.New("plain")) {
		t.Fatal("plain error classified as shed")
	}
	if got := RetryAfterHint(errors.New("plain"), 7*time.Millisecond); got != 7*time.Millisecond {
		t.Fatalf("default hint = %v", got)
	}
}
