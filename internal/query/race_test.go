//go:build race

package query

// raceEnabled reports a -race build, under which allocation counts are
// not checked: the detector makes sync.Pool drop items at random, so a
// statement's object count varies from run to run.
const raceEnabled = true
