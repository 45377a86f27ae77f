//go:build race

package phylo

// raceEnabled reports a -race build, under which the 800-taxon NJ
// oracle cases (over a minute with the detector on) are skipped:
// NeighborJoining starts no goroutines, so the detector has nothing
// there to check.
const raceEnabled = true
