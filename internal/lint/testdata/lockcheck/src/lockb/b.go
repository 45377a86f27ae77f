// Package lockb is the middle hop of the golden cross-package cycle:
// Process holds no lock itself, but its Filler callback dispatches to
// an implementation in a package that imports this one, and whatever
// that implementation acquires becomes part of Process's closure.
package lockb

import (
	"sync"
	"time"
)

// Filler is implemented by callers.
type Filler interface {
	Fill()
}

// Process runs the callback; its lock closure is the callback's.
func Process(f Filler) {
	f.Fill()
}

// B demonstrates blocking-under-lock: Pump calls send while holding
// B.mu, and send's body does a channel send.
type B struct {
	mu sync.Mutex
	ch chan int
}

func (b *B) Pump() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.send() // want `blocks \(channel op or Wait in its call chain\) while lockb\.B\.mu is held`
}

func (b *B) send() {
	b.ch <- 1
}

// Compliant: D → E is taken in the same order everywhere, so the
// graph stays acyclic and nothing below is flagged.
type D struct {
	mu sync.Mutex
	n  int
}

type E struct {
	mu sync.Mutex
	n  int
}

func (d *D) Bump(e *E) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e.Inc()
}

func (e *E) Inc() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
}

// Clock is an injected clock, like netsim.Clock: its Sleep blocks.
type Clock interface {
	Sleep(d time.Duration)
}

// Pause is a backoff helper that sleeps on the injected clock, so a
// caller that holds a lock across it stalls every other taker.
func Pause(c Clock, d time.Duration) {
	c.Sleep(d)
}
