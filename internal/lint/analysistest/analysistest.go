// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against `// want` comments, mirroring the
// golden-test contract of golang.org/x/tools/go/analysis/analysistest:
// a line that should be flagged carries a trailing comment
//
//	time.Sleep(time.Second) // want `time\.Sleep`
//
// where the backquoted (or double-quoted) argument is a regular
// expression that must match the diagnostic message reported on that
// line. A line may carry several expectations; every diagnostic must
// match exactly one pending expectation and every expectation must be
// consumed, otherwise the test fails with a per-line explanation.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"drugtree/internal/lint/analysis"
	"drugtree/internal/lint/loader"
)

// expectation is one `// want` regexp awaiting a diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run applies a to the fixture packages under testdata/src/<pkg> in
// one call, as the production driver does, and verifies the
// diagnostics against the // want comments. Listing several packages
// lets a fixture pin a lock-order cycle that only exists through a
// cross-package call.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	passes := make([]*analysis.Pass, len(pkgs))
	got := make([][]analysis.Diagnostic, len(pkgs))
	for i, pkgPath := range pkgs {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
		pkg, err := loader.LoadDir(token.NewFileSet(), dir, pkgPath)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		passes[i] = &analysis.Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Filenames: pkg.Filenames,
			PkgPath:   pkg.Path,
			Report:    func(d analysis.Diagnostic) { got[i] = append(got[i], d) },
		}
	}
	a.Run(passes)
	for i, pass := range passes {
		want, err := expectations(pass.Fset, pass.Files)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, d := range got[i] {
			pos := pass.Fset.Position(d.Pos)
			if !claim(want, pos.Filename, pos.Line, d.Message) {
				t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, pos.Filename, pos.Line, d.Message)
			}
		}
		for _, w := range want {
			if !w.met {
				t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, w.file, w.line, w.re)
			}
		}
	}
}

// claim marks the first unmet expectation on (file, line) whose
// regexp matches msg.
func claim(want []*expectation, file string, line int, msg string) bool {
	for _, w := range want {
		if !w.met && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.met = true
			return true
		}
	}
	return false
}

// wantRE pulls the arguments out of a `// want` comment: backquoted
// or double-quoted strings.
var wantRE = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

// expectations parses the // want comments of every file.
func expectations(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") && text != "want" {
					continue
				}
				pos := fset.Position(c.Pos())
				args := wantRE.FindAllString(strings.TrimPrefix(text, "want"), -1)
				if len(args) == 0 {
					return nil, fmt.Errorf("%s:%d: // want comment with no pattern", pos.Filename, pos.Line)
				}
				for _, arg := range args {
					re, err := regexp.Compile(arg[1 : len(arg)-1])
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern: %w", pos.Filename, pos.Line, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}
