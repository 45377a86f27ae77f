package main

import (
	"sort"
	"time"
)

// Host-speed calibration. The reference host is a 2-vCPU guest that
// shares its memory system with neighbours: for tens of seconds at a
// time everything that misses the L2 cache — which is most of a query
// engine — runs 10–30 % slower, CPU time as well as wall time, while a
// register-only loop keeps its speed to 1 %. No estimator inside one
// run can vote that out, because the whole run sits inside the slow
// spell. So every round also times a fixed reference kernel between
// its ops, and the round's latencies and CPU time are divided by how
// much slower than nominal the kernel ran. The kernel shares no code
// with the system under test, so a change to DrugTree cannot move it.

const (
	// calWords sizes the kernel's buffer: 8 MiB, summed once. It does
	// not allocate, so it adds nothing to the allocation metrics and
	// triggers no GC.
	calWords = 1 << 20
	// calEvery is the least time between two kernel runs. At ≈ 1.5 ms a
	// run the calibration costs about 5 % of a round.
	calEvery = 25 * time.Millisecond
	// calNominal is the kernel's time on the quiet reference host; it
	// only fixes the scale, so that calibrated times read as that
	// host's milliseconds.
	calNominal = 1400 * time.Microsecond
)

// calibrator times the reference kernel between the ops of a round.
type calibrator struct {
	buf     []float64
	last    time.Time
	samples []time.Duration
	sink    float64 // keeps the sum alive
}

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]float64, calWords)}
	for i := range c.buf {
		c.buf[i] = float64(i&1023) * 0.5
	}
	return c
}

// reset starts a round: the next tick samples at once.
func (c *calibrator) reset() {
	c.last = time.Time{}
	c.samples = c.samples[:0]
}

// tick runs the kernel if calEvery has passed since its last run. It
// is called between ops, outside every timed window.
func (c *calibrator) tick() {
	if time.Since(c.last) < calEvery {
		return
	}
	t0 := time.Now()
	s := 0.0
	for _, v := range c.buf {
		s += v
	}
	c.sink = s
	c.last = time.Now()
	c.samples = append(c.samples, c.last.Sub(t0))
}

// slowdown is the round's median kernel time over nominal, and spent
// the time the kernel ran in all (to be taken off the round's CPU
// time; the kernel is single-threaded, so its CPU time is its wall
// time).
func (c *calibrator) slowdown() (factor float64, spent time.Duration) {
	s := append([]time.Duration(nil), c.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for _, d := range s {
		spent += d
	}
	return float64(s[len(s)/2]) / float64(calNominal), spent
}
