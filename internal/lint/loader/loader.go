// Package loader parses Go packages for the lint analyzers. The
// production path shells out to `go list` so package membership
// matches exactly what the build sees (build tags, ignored files,
// testdata exclusion); the test path loads a bare directory so
// analysistest fixtures need no go.mod scaffolding. Both paths skip
// _test.go files: the analyzers encode production invariants, and
// tests legitimately use wall clocks, context.Background, and
// short-lived goroutines.
package loader

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed package.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the package directory on disk.
	Dir  string
	Fset *token.FileSet
	// Files and Filenames are parallel; Filenames are slash-separated
	// and relative to the load root when below it.
	Files     []*ast.File
	Filenames []string
}

// Load enumerates the packages matching patterns (as the go tool
// resolves them, so `./...` skips testdata/) rooted at dir, and
// parses each one's non-test files.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// One line a package: import path, directory, then its Go files,
	// tab-separated.
	args := append([]string{"list", "-f", `{{.ImportPath}}{{"\t"}}{{.Dir}}{{range .GoFiles}}{{"\t"}}{{.}}{{end}}`}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go list %s: %w\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, line := range strings.Split(out.String(), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			return nil, fmt.Errorf("loader: unexpected go list output %q", line)
		}
		pkg := &Package{Path: fields[0], Dir: fields[1], Fset: fset}
		for _, name := range fields[2:] {
			full := filepath.Join(pkg.Dir, name)
			f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("loader: %w", err)
			}
			pkg.Files = append(pkg.Files, f)
			pkg.Filenames = append(pkg.Filenames, relTo(dir, full))
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses the non-test .go files directly under dir as a
// single package with the given import path. Used by analysistest
// and suppression tests over fixture trees.
func LoadDir(fset *token.FileSet, dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, filepath.ToSlash(full))
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	return pkg, nil
}

// relTo returns full relative to root in slash form when it sits
// below it, else full in slash form.
func relTo(root, full string) string {
	if rel, err := filepath.Rel(root, full); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(full)
}
