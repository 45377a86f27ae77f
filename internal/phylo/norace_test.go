//go:build !race

package phylo

const raceEnabled = false
