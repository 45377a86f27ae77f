package query

import "math/rand"

// Test-only exports for the external test package (sharded_test.go),
// which may import internal/shard — a package that itself imports this
// one — where an in-package test may not.
var (
	RefQuery         = refQuery
	DatagenCatalog   = datagenCatalog
	CladeOfSize      = cladeOfSize
	AssertSameResult = assertSameResult
	SerialOptions    = serialOptions
)

// QueryGen is the seeded DTQL generator of the differential suites.
type QueryGen = queryGen

// NewQueryGen seeds a generator over the datagen catalog's literal and
// node-name universe.
func NewQueryGen(seed int64, nodes []string) *QueryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), strLits: datagenLiterals(), nodes: nodes}
}

// Generate emits one random query and whether it is order-sensitive.
func (g *QueryGen) Generate() (string, bool) { return g.generate() }
