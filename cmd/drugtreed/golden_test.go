package main

import (
	"net/url"
	"os"
	"strings"
	"testing"
)

// goldenStatements are a grouped statement, one whose result mixes NULLs
// and floats, and an EXPLAIN: the result shapes a rendering change could
// alter.
var goldenStatements = []string{
	"SELECT family, COUNT(*) AS n, AVG(length) AS mean_len FROM proteins GROUP BY family ORDER BY family",
	"SELECT ligand_id, weight, weight / 7 AS w7, (SELECT MAX(affinity) FROM activities WHERE affinity > 99) AS none FROM ligands ORDER BY ligand_id LIMIT 4",
	"EXPLAIN SELECT p.family, COUNT(*) FROM proteins p JOIN activities a ON p.accession = a.protein_id GROUP BY p.family",
}

// TestQueryEndpointGolden pins the GET /query JSON body, byte for byte,
// for each golden statement.
func TestQueryEndpointGolden(t *testing.T) {
	srv := testServer(t)
	var got strings.Builder
	for _, q := range goldenStatements {
		resp, body := get(t, srv.URL+"/query?q="+url.QueryEscape(q))
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
		}
		got.WriteString("> " + q + "\n" + body)
	}
	want, err := os.ReadFile("testdata/query.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("GET /query bodies differ from testdata/query.golden:\n%s", got.String())
	}
}
