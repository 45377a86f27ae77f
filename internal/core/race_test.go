//go:build race

package core_test

// raceEnabled reports a -race build, under which the count ledger is
// not checked: the detector's instrumentation allocates, and makes
// sync.Pool drop items at random, so a statement's counts vary.
const raceEnabled = true
