package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/netsim"
)

// T9 overload experiment: a discrete-event simulation of the query
// tier on a virtual clock — Poisson arrivals against a fixed worker
// pool with a 100ms interactive deadline — comparing an unprotected
// unbounded FIFO queue against the admission limiter's deadline-aware
// shedding.
//
// The claim under test is the load-shedding tradeoff: past
// saturation, an unprotected queue keeps accepting work it can no
// longer finish in time, so *goodput* (replies within deadline)
// collapses even though throughput stays at capacity. A limiter that
// refuses requests predicted to miss their deadline keeps goodput at
// ~capacity and the served tail bounded, at the price of explicit
// sheds the client can retry against.
const (
	// t9Workers × 1/t9Service = 400 qps saturation.
	t9Workers  = 4
	t9Service  = 10 * time.Millisecond
	t9Deadline = 100 * time.Millisecond
	t9Duration = 10 * time.Second
	// t9Queue is deep enough that deadline-based shedding binds long
	// before the queue-full bound (ETA exceeds the deadline at ~36
	// waiters).
	t9Queue = 64
)

// t9Capacity is the pool's saturation throughput in requests/second.
func t9Capacity() float64 {
	return float64(t9Workers) / t9Service.Seconds()
}

// t9Arrivals draws a seeded Poisson arrival process at load×capacity
// over the experiment window.
func t9Arrivals(seed int64, load float64) []time.Duration {
	rate := load * t9Capacity()
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= t9Duration {
			return out
		}
		out = append(out, t)
	}
}

// t9Cell is one (mode, load) measurement.
type t9Cell struct {
	offered   float64 // arrival rate, qps
	goodput   float64 // replies within deadline, qps
	completed int
	late      int // completed past deadline
	shed      int
	p50, p99  time.Duration // latency of completed requests
}

func t9Percentiles(lats []time.Duration, cell *t9Cell) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	cell.p50 = lats[len(lats)/2]
	cell.p99 = lats[len(lats)*99/100]
}

// t9RunUnprotected serves every arrival through an unbounded FIFO
// queue: nothing is refused, so queueing delay past saturation grows
// without bound and requests finish long after their deadlines.
func t9RunUnprotected(arrivals []time.Duration) *t9Cell {
	cell := &t9Cell{offered: float64(len(arrivals)) / t9Duration.Seconds()}
	free := make([]time.Duration, t9Workers)
	lats := make([]time.Duration, 0, len(arrivals))
	for _, arr := range arrivals {
		wi := 0
		for i := 1; i < t9Workers; i++ {
			if free[i] < free[wi] {
				wi = i
			}
		}
		start := arr
		if free[wi] > start {
			start = free[wi]
		}
		fin := start + t9Service
		free[wi] = fin
		lat := fin - arr
		lats = append(lats, lat)
		cell.completed++
		if lat > t9Deadline {
			cell.late++
		}
	}
	cell.goodput = float64(cell.completed-cell.late) / t9Duration.Seconds()
	t9Percentiles(lats, cell)
	return cell
}

// t9RunProtected drives the same arrivals through an admission
// limiter on a virtual clock, polling non-blocking tickets from a
// single-threaded event loop (completions are applied before
// arrivals at equal timestamps, and pending tickets resolve in
// arrival order, so the run is deterministic).
func t9RunProtected(ctx context.Context, arrivals []time.Duration) (*t9Cell, error) {
	vc := netsim.NewVirtualClock()
	lim := admission.NewLimiter(admission.Config{
		Name:           "t9",
		MaxConcurrency: t9Workers,
		MaxQueue:       t9Queue,
		Clock:          vc,
	})

	type inflight struct {
		fin     time.Duration
		arr     time.Duration
		release func()
	}
	type waiting struct {
		tk  *admission.Ticket
		arr time.Duration
	}
	cell := &t9Cell{offered: float64(len(arrivals)) / t9Duration.Seconds()}
	var running []inflight
	var pending []waiting
	lats := make([]time.Duration, 0, len(arrivals))

	begin := func(arr time.Duration, release func()) {
		running = append(running, inflight{fin: vc.Now() + t9Service, arr: arr, release: release})
	}
	// poll resolves any tickets the limiter decided (admitted or shed)
	// since the last event.
	poll := func() {
		kept := pending[:0]
		for _, w := range pending {
			select {
			case fn := <-w.tk.C():
				if fn == nil {
					cell.shed++
				} else {
					begin(w.arr, fn)
				}
			default:
				kept = append(kept, w)
			}
		}
		pending = kept
	}

	next := 0
	for next < len(arrivals) || len(running) > 0 || len(pending) > 0 {
		nextFin := time.Duration(-1)
		fi := -1
		for i := range running {
			if fi < 0 || running[i].fin < nextFin {
				nextFin, fi = running[i].fin, i
			}
		}
		switch {
		case next < len(arrivals) && (fi < 0 || arrivals[next] < nextFin):
			arr := arrivals[next]
			next++
			vc.AdvanceTo(arr)
			reqCtx := admission.WithDeadlineAt(ctx, arr+t9Deadline)
			tk, err := lim.Begin(reqCtx)
			if err != nil {
				cell.shed++
				continue
			}
			select {
			case fn := <-tk.C():
				if fn == nil {
					cell.shed++
				} else {
					begin(arr, fn)
				}
			default:
				pending = append(pending, waiting{tk, arr})
			}
		case fi >= 0:
			f := running[fi]
			running = append(running[:fi], running[fi+1:]...)
			vc.AdvanceTo(f.fin)
			f.release()
			lat := f.fin - f.arr
			lats = append(lats, lat)
			cell.completed++
			if lat > t9Deadline {
				cell.late++
			}
			poll()
		default:
			// Queued waiters with no work running and no arrivals left
			// cannot progress — the limiter would have admitted them on
			// the last release, so this indicates a bug.
			return nil, fmt.Errorf("T9: %d tickets stranded in queue", len(pending))
		}
	}
	cell.goodput = float64(cell.completed-cell.late) / t9Duration.Seconds()
	t9Percentiles(lats, cell)
	return cell, nil
}

// T9Mode runs one protection mode across the load sweep (exported for
// bench_test.go). Mode is "unprotected" or "shed-fifo".
func T9Mode(ctx context.Context, seed int64, mode string, loads []float64) ([]*t9Cell, error) {
	cells := make([]*t9Cell, 0, len(loads))
	for _, load := range loads {
		arrivals := t9Arrivals(seed, load)
		var cell *t9Cell
		var err error
		switch mode {
		case "unprotected":
			cell = t9RunUnprotected(arrivals)
		case "shed-fifo":
			cell, err = t9RunProtected(ctx, arrivals)
		default:
			err = fmt.Errorf("T9: unknown mode %q", mode)
		}
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// RunT9 measures goodput and tail latency across a load sweep with
// admission control off vs on.
func RunT9(ctx context.Context, seed int64) (*Report, error) {
	loads := []float64{0.5, 1, 2, 3}
	modes := []string{"unprotected", "shed-fifo"}

	rep := &Report{
		ID:     "T9",
		Title:  "Overload: goodput and tail latency, unprotected queue vs deadline-aware shedding",
		Header: []string{"mode", "load", "offered qps", "goodput qps", "shed", "late", "p50", "p99"},
	}
	results := map[string][]*t9Cell{}
	for _, mode := range modes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cells, err := T9Mode(ctx, seed, mode, loads)
		if err != nil {
			return nil, err
		}
		results[mode] = cells
		for i, c := range cells {
			rep.Rows = append(rep.Rows, []string{
				mode,
				fmt.Sprintf("%.1fx", loads[i]),
				fmt.Sprintf("%.0f", c.offered),
				fmt.Sprintf("%.0f", c.goodput),
				fmt.Sprint(c.shed),
				fmt.Sprint(c.late),
				fmtMs(float64(c.p50.Microseconds()) / 1e3),
				fmtMs(float64(c.p99.Microseconds()) / 1e3),
			})
		}
	}

	peak := func(cells []*t9Cell) float64 {
		best := 0.0
		for _, c := range cells {
			if c.goodput > best {
				best = c.goodput
			}
		}
		return best
	}
	// Acceptance: with shedding on, goodput at ≥2× saturation holds
	// ≥80% of its peak and the served tail stays bounded near the
	// deadline; the unprotected queue collapses; shedding is load-
	// proportional (none below saturation, plenty past it).
	unPeak := peak(results["unprotected"])
	cells := results["shed-fifo"]
	p := peak(cells)
	for i, load := range loads {
		c := cells[i]
		if load >= 2 {
			if c.goodput < 0.8*p {
				return nil, fmt.Errorf("T9: shed-fifo goodput %.0f qps at %.1fx below 80%% of peak %.0f",
					c.goodput, load, p)
			}
			if c.p99 > 3*t9Deadline/2 {
				return nil, fmt.Errorf("T9: shed-fifo p99 %v at %.1fx exceeds 1.5x deadline", c.p99, load)
			}
			if c.shed == 0 {
				return nil, fmt.Errorf("T9: shed-fifo shed nothing at %.1fx saturation", load)
			}
		}
		if load <= 0.5 && c.shed != 0 {
			return nil, fmt.Errorf("T9: shed-fifo shed %d requests at %.1fx (underload)", c.shed, load)
		}
	}
	unFinal := results["unprotected"][len(loads)-1]
	if unFinal.goodput > 0.5*unPeak {
		return nil, fmt.Errorf("T9: unprotected goodput %.0f qps at %.1fx did not collapse (peak %.0f)",
			unFinal.goodput, loads[len(loads)-1], unPeak)
	}

	rep.Notes = fmt.Sprintf(
		"Saturation %.0f qps. At 2x load shedding holds %.0f qps goodput (p99 %v) while the unprotected queue decays to %.0f qps (p99 %v).",
		t9Capacity(), cells[2].goodput, cells[2].p99,
		results["unprotected"][2].goodput, results["unprotected"][2].p99)
	return rep, nil
}
