// drugtree-lint runs the drugtree static-analysis suite: ten
// analyzers that machine-check the tree's concurrency, clock,
// error-contract, durability and context invariants (see internal/lint
// and DESIGN.md "Static-analysis gates"). Nine are purely syntactic
// and look at one package at a time; lockorder collects per-function
// lock facts from every package first, so its analysis can follow
// calls across package boundaries.
//
//	drugtree-lint ./...          # lint packages by go-list pattern
//	drugtree-lint -list          # describe the analyzers
//
// Findings are suppressible per line with
//
//	//lint:ignore drugtree/<analyzer> <reason>
//
// on or directly above the flagged line. Suppressions are budgeted
// per analyzer (internal/lint/lint.go); exceeding the budget, or
// suppressing without a reason, fails the run just like a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"drugtree/internal/lint"
	"drugtree/internal/lint/loader"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("drugtree/%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := loader.Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res := lint.Check(pkgs)
	for _, f := range res.Findings {
		fmt.Fprintln(os.Stderr, f)
	}
	for _, e := range res.BudgetErrors {
		fmt.Fprintln(os.Stderr, e)
	}
	if !res.OK() {
		fmt.Fprintf(os.Stderr, "drugtree-lint: %d findings, %d budget/suppression errors\n",
			len(res.Findings), len(res.BudgetErrors))
		return 1
	}
	used := 0
	var parts []string
	for _, a := range lint.All() {
		if n := res.Suppressed[a.Name]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d/%d", a.Name, n, lint.Budget[a.Name]))
			used += n
		}
	}
	sort.Strings(parts)
	detail := ""
	if used > 0 {
		detail = fmt.Sprintf(" (suppressions: %s)", strings.Join(parts, ", "))
	}
	fmt.Printf("drugtree-lint: ok — %d analyzers over %d packages, 0 findings%s\n",
		len(lint.All()), len(pkgs), detail)
	return 0
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("drugtree-lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}
