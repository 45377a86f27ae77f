package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r) // a pipe read fails only once w is closed
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	printed := <-out
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return printed
}

// TestQueryTextGolden pins the `drugtree query` text, byte for byte, for
// a grouped statement, one whose result mixes NULLs and floats, and an
// EXPLAIN.
func TestQueryTextGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	if err := cmdInit([]string{"-dir", dir, "-families", "2", "-per-family", "5", "-ligands", "8"}); err != nil {
		t.Fatalf("init: %v", err)
	}
	var got strings.Builder
	for _, q := range []string{
		"SELECT family, COUNT(*) AS n, AVG(length) AS mean_len FROM proteins GROUP BY family ORDER BY family",
		"SELECT ligand_id, weight, weight / 7 AS w7, (SELECT MAX(affinity) FROM activities WHERE affinity > 99) AS none FROM ligands ORDER BY ligand_id LIMIT 4",
		"EXPLAIN SELECT p.family, COUNT(*) FROM proteins p JOIN activities a ON p.accession = a.protein_id GROUP BY p.family",
	} {
		got.WriteString("> " + q + "\n")
		got.WriteString(captureStdout(t, func() error { return cmdQuery([]string{"-dir", dir, q}) }))
	}
	want, err := os.ReadFile("testdata/query.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("drugtree query text differs from testdata/query.golden:\n%s", got.String())
	}
}
