package phylo

// Test-only handles for the external test package, which may import
// datagen (a package that itself imports phylo).
var (
	NJOracleOutcome = njOracleOutcome
	SameOutcome     = sameOutcome
)

const RaceEnabled = raceEnabled
