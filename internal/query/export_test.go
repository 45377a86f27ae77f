package query

import (
	"math/rand"
	"testing"
)

// Test-only exports for the external test package (sharded_test.go,
// wire_test.go), which may import internal/shard, internal/core and
// internal/mobile — packages that themselves import this one — where an
// in-package test may not.
var (
	RefQuery         = refQuery
	DatagenCatalog   = datagenCatalog
	CladeOfSize      = cladeOfSize
	AssertSameResult = assertSameResult
)

// EngineCatalog is testCatalog without tree_nodes, for a core engine
// built over it to publish its own.
func EngineCatalog(t *testing.T) *DBCatalog { return testCatalogWith(t, false) }

// DifferentialCorpus lists the statements of differentialCorpus.
func DifferentialCorpus() []string {
	out := make([]string, len(differentialCorpus))
	for i, c := range differentialCorpus {
		out[i] = c.q
	}
	return out
}

// QueryGen is the seeded DTQL generator of the differential suites.
type QueryGen = queryGen

// NewQueryGen seeds a generator over the datagen catalog's literal and
// node-name universe.
func NewQueryGen(seed int64, nodes []string) *QueryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), strLits: datagenLiterals(), nodes: nodes}
}

// Generate emits one random query and whether it is order-sensitive.
func (g *QueryGen) Generate() (string, bool) { return g.generate() }
