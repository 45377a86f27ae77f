// drugtree-lint runs the drugtree static-analysis suite: nine
// syntactic analyzers that machine-check the tree's concurrency,
// clock, error-contract, and context invariants (see internal/lint
// and DESIGN.md "Static-analysis gates"). Four of them are
// fact-propagating — a collection phase exports per-function facts
// (locks acquired, blocking behaviour, %w wrapping, atomic fields)
// from every package so the analysis phase can reason across package
// boundaries; under the vet driver those facts ship between per-package
// invocations through the standard .vetx side files.
//
// Standalone (the `make lint` path):
//
//	drugtree-lint ./...          # lint packages by go-list pattern
//	drugtree-lint -list          # describe the analyzers
//
// It also speaks enough of the `go vet -vettool` unit-checker
// protocol to run under the vet driver:
//
//	go vet -vettool=$(which drugtree-lint) ./...
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
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"drugtree/internal/lint"
	"drugtree/internal/lint/analysis"
	"drugtree/internal/lint/loader"
)

func main() {
	// `go vet -vettool` probes the tool's version first, then invokes
	// it once per package with a single *.cfg argument.
	if len(os.Args) == 2 {
		if strings.HasPrefix(os.Args[1], "-V") {
			fmt.Println("drugtree-lint version devel buildID=drugtree-lint")
			return
		}
		if os.Args[1] == "-flags" {
			// The vet driver asks which analyzer flags the tool
			// defines; the suite has none.
			fmt.Println("[]")
			return
		}
		if strings.HasSuffix(os.Args[1], ".cfg") {
			os.Exit(vetMode(os.Args[1]))
		}
	}
	os.Exit(standalone())
}

func standalone() int {
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

// vetCfg is the subset of the cmd/go unit-checker config we consume.
type vetCfg struct {
	ImportPath string
	GoFiles    []string
	VetxOutput string
	// PackageVetx maps each dependency's import path to the facts file
	// a previous invocation wrote for it; vet schedules dependencies
	// first, so by the time a package is analyzed every fact its
	// analyzers can follow is on disk.
	PackageVetx map[string]string
	// VetxOnly marks a dependency package the driver only wants facts
	// for (it is not among the packages named on the vet command
	// line); diagnostics must not be reported for it.
	VetxOnly bool
}

// vetMode lints one package as directed by a vet config file. Facts
// flow the same way vet's own analyzers ship theirs: dependency .vetx
// files (each one an analysis.FactSet encoding) are merged with this
// package's Collect output, the merged table is written to VetxOutput
// for packages downstream, and the analysis phase runs against it —
// so lockorder sees internal/store's lock graph while it checks
// internal/core even though vet hands the tool one package at a time.
//
// The suppression budget is global-by-design and vet invokes the tool
// per package, so vet mode filters suppressions but leaves budget
// enforcement to the standalone run in `make lint`.
func vetMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drugtree-lint: %v\n", err)
		return 2
	}
	var cfg vetCfg
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "drugtree-lint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// Non-drugtree packages (the standard library, should anything else
	// ever appear) get an empty facts file and no collection: the
	// suite's invariants are drugtree policy, not a judgement on other
	// people's code.
	if !strings.HasPrefix(cfg.ImportPath, "drugtree") {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				fmt.Fprintf(os.Stderr, "drugtree-lint: %v\n", err)
				return 2
			}
		}
		return 0
	}
	fset := token.NewFileSet()
	pkg := &loader.Package{Path: cfg.ImportPath, Fset: fset}
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drugtree-lint: %v\n", err)
			return 2
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, filepath.ToSlash(name))
	}
	// Assemble the fact table: every dependency's shipped facts, then
	// this package's own collection on top.
	facts := make(analysis.FactSet)
	for dep, path := range cfg.PackageVetx {
		depData, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drugtree-lint: reading facts for %s: %v\n", dep, err)
			return 2
		}
		depFacts, err := analysis.DecodeFacts(depData)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drugtree-lint: facts for %s: %v\n", dep, err)
			return 2
		}
		facts.Merge(depFacts)
	}
	own, collectErrs := lint.CollectFacts([]*loader.Package{pkg})
	facts.Merge(own)
	if cfg.VetxOutput != "" {
		enc, err := facts.Encode()
		if err != nil {
			fmt.Fprintf(os.Stderr, "drugtree-lint: encoding facts: %v\n", err)
			return 2
		}
		if err := os.WriteFile(cfg.VetxOutput, enc, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "drugtree-lint: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		// Facts-only invocation: the package is a dependency of the
		// named ones, so its facts matter but its diagnostics are not
		// this run's business.
		for _, e := range collectErrs {
			fmt.Fprintln(os.Stderr, e)
		}
		if len(collectErrs) > 0 {
			return 2
		}
		return 0
	}
	// With an unlimited budget, any BudgetErrors left are malformed
	// suppression comments — still a failure.
	res := lint.CheckWithFacts([]*loader.Package{pkg}, unlimitedBudget(), facts)
	for _, e := range collectErrs {
		fmt.Fprintln(os.Stderr, e)
	}
	for _, f := range res.Findings {
		fmt.Fprintln(os.Stderr, f)
	}
	for _, e := range res.BudgetErrors {
		fmt.Fprintln(os.Stderr, e)
	}
	if len(collectErrs) > 0 || len(res.Findings) > 0 || len(res.BudgetErrors) > 0 {
		return 2
	}
	return 0
}

func unlimitedBudget() map[string]int {
	b := make(map[string]int)
	for _, a := range lint.All() {
		b[a.Name] = 1 << 30
	}
	return b
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
