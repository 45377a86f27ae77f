// Fixture: a deterministic package (path segment "experiments")
// touching the wall clock every way clockcheck forbids, plus the
// shapes it must leave alone.
package experiments

import (
	"time"
)

func measure() time.Duration {
	start := time.Now()               // want `time\.Now in deterministic package`
	time.Sleep(time.Millisecond)      // want `time\.Sleep in deterministic package`
	<-time.After(time.Millisecond)    // want `time\.After in deterministic package`
	_ = time.NewTimer(time.Second)    // want `time\.NewTimer in deterministic package`
	_ = time.NewTicker(time.Second)   // want `time\.NewTicker in deterministic package`
	time.AfterFunc(tick, func() {})   // want `time\.AfterFunc in deterministic package`
	return time.Since(start)          // want `time\.Since in deterministic package`
}

// Duration arithmetic and constants stay free.
const tick = 50 * time.Millisecond

var budget = 3 * tick

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

// A local declaration shadowing the package name is not the wall
// clock.
func shadowed() int {
	time := fakeClock{}
	return time.Now()
}

type fakeClock struct{}

func (fakeClock) Now() int { return 0 }

// firstRun is T6's first-execution timing read off the wall clock
// instead of the injected one (internal/experiments/t6_stmtcache.go).
// The report's numbers look the same, so no test notices.
func firstRun(run func()) time.Duration {
	wall := time.Now() // want `time\.Now in deterministic package`
	run()
	return time.Since(wall) // want `time\.Since in deterministic package`
}
