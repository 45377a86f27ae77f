// Package lint is the drugtree static-analysis suite: eleven
// analyzers that machine-check the invariants the system's
// correctness rests on, from the intra-function discipline PR 1/PR 2
// introduced (clock injection, context threading, lock/blocking
// hygiene, goroutine shutdown, %w wrapping) to the cross-package
// invariants of the engine: a lock-order contract over
// store.DB → admission.Limiter, errors.Is-only
// handling of wrapped sentinels like store.ErrPoisoned,
// atomic-everywhere access to shared counters, leak-proof channel
// operations inside
// spawned goroutines, the durability seam of the crash-safe I/O layer
// (fscheck: persistence packages do file I/O through vfs.FS, never
// raw os.*, so the crash-point matrix store.TestTortureMatrix sees every byte
// that matters), and the MVCC snapshot lifecycle (snapcheck: every
// PinSnapshot gets a Release on all paths, so pinned versions cannot
// leak and block the version GC).
//
// Seven analyzers (clockcheck, ctxcheck, fscheck, lockcheck,
// snapcheck, spawncheck, wrapcheck) are intra-function and purely
// syntactic. The four added for the distributed layer (lockorder,
// errcmp, atomiccheck, sendcheck) are fact-propagating: a collection
// phase
// runs every analyzer's Collect hook over every package and merges
// the exported per-function facts ("acquires mu", "blocks on a
// channel", "wraps sentinel X", "field f is atomic") into one table,
// so the analysis phase can follow a call from internal/core into
// internal/store and reason about what it acquires or blocks on across
// the package boundary.
//
// Each analyzer is documented on its own file; Check runs them all
// over a set of loaded packages, applies `//lint:ignore` suppressions,
// and enforces the suppression budget so the escape hatch cannot
// silently grow.
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"drugtree/internal/lint/analysis"
	"drugtree/internal/lint/loader"
)

// All returns the suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AtomicCheck,
		ClockCheck,
		CtxCheck,
		ErrCmp,
		FSCheck,
		LockCheck,
		LockOrder,
		SendCheck,
		SnapCheck,
		SpawnCheck,
		WrapCheck,
	}
}

// Budget caps how many //lint:ignore suppressions each analyzer may
// carry across the whole tree. A suppression documents a reviewed,
// justified exception (the comment must say why); the budget keeps
// the count from creeping up unreviewed. Raising a number here is a
// reviewable act. Every analyzer in All() must have an entry, and no
// entry may name an unknown analyzer — CheckBudget enforces both.
var Budget = map[string]int{
	// Three deliberate fsyncs under a lock: store.DB.Checkpoint syncs
	// under db.mu (the snapshot must be a frozen point-in-time image),
	// walWriter.Reset syncs its truncation under the writer mutex (no
	// post-checkpoint append may land before the truncation is
	// durable), and walWriter.syncTo holds syncMu across the group-
	// commit fsync (that hold is the ticket concurrent committers
	// piggyback on).
	"lockcheck":   3,
	"lockorder":   0,
	"atomiccheck": 0,
	"clockcheck":  0,
	"ctxcheck":    0,
	"errcmp":      0,
	"fscheck":     0,
	"sendcheck":   0,
	"snapcheck":   0,
	"spawncheck":  0,
	"wrapcheck":   0,
}

// Finding is one post-suppression diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [drugtree/%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Result aggregates one Check run.
type Result struct {
	Findings []Finding
	// Suppressed counts consumed suppressions per analyzer.
	Suppressed map[string]int
	// BudgetErrors reports analyzers whose suppression count exceeds
	// Budget, malformed suppression comments, and budget entries that
	// name no known analyzer.
	BudgetErrors []string
}

// OK reports whether the tree is clean: no findings and the
// suppression budget holds.
func (r *Result) OK() bool { return len(r.Findings) == 0 && len(r.BudgetErrors) == 0 }

// Check runs every analyzer over pkgs with the default budget.
func Check(pkgs []*loader.Package) *Result { return CheckBudget(pkgs, Budget) }

// CollectFacts runs the collection phase: every analyzer's Collect
// hook over every package, merged into one FactSet. The vet driver
// calls it directly so per-package invocations can ship facts through
// .vetx files; CheckBudget calls it as phase one of a whole-tree run.
// Collection failures surface as error strings (they fail the run
// like findings) rather than aborting other analyzers.
func CollectFacts(pkgs []*loader.Package) (analysis.FactSet, []string) {
	facts := make(analysis.FactSet)
	var errs []string
	for _, pkg := range pkgs {
		for _, a := range All() {
			if a.Collect == nil {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Filenames: pkg.Filenames,
				PkgPath:   pkg.Path,
			}
			kv, err := a.Collect(pass)
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s: fact collection failed on %s: %v", a.Name, pkg.Path, err))
				continue
			}
			facts.Merge(analysis.FactSet{a.Name: kv})
		}
	}
	return facts, errs
}

// CheckBudget runs every analyzer over pkgs, filtering suppressed
// diagnostics and enforcing the given per-analyzer suppression caps.
// The run is two-phase: fact collection over every package first,
// then analysis with the merged cross-package fact table.
func CheckBudget(pkgs []*loader.Package, budget map[string]int) *Result {
	facts, errs := CollectFacts(pkgs)
	return checkWithFacts(pkgs, budget, facts, errs)
}

// CheckWithFacts runs the analysis phase over pkgs against an
// externally assembled fact table (the vet driver's path: facts for
// dependency packages arrive through .vetx files, already merged with
// this package's own Collect output).
func CheckWithFacts(pkgs []*loader.Package, budget map[string]int, facts analysis.FactSet) *Result {
	return checkWithFacts(pkgs, budget, facts, nil)
}

func checkWithFacts(pkgs []*loader.Package, budget map[string]int, facts analysis.FactSet, preErrors []string) *Result {
	res := &Result{Suppressed: make(map[string]int)}
	res.BudgetErrors = append(res.BudgetErrors, preErrors...)
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for name := range budget {
		if !known[name] {
			res.BudgetErrors = append(res.BudgetErrors, fmt.Sprintf(
				"budget names unknown analyzer %q (internal/lint/lint.go Budget)", name))
		}
	}
	for _, pkg := range pkgs {
		sup, malformed := suppressions(pkg)
		res.BudgetErrors = append(res.BudgetErrors, malformed...)
		for _, a := range All() {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Filenames: pkg.Filenames,
				PkgPath:   pkg.Path,
				Facts:     facts[a.Name],
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if sup.covers(name, pos) {
					res.Suppressed[name]++
					return
				}
				res.Findings = append(res.Findings, Finding{Analyzer: name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				res.BudgetErrors = append(res.BudgetErrors,
					fmt.Sprintf("%s: analyzer failed on %s: %v", name, pkg.Path, err))
			}
		}
	}
	for name, used := range res.Suppressed {
		if used > budget[name] {
			res.BudgetErrors = append(res.BudgetErrors, fmt.Sprintf(
				"drugtree/%s: %d suppressions in tree, budget is %d (internal/lint/lint.go Budget)",
				name, used, budget[name]))
		}
	}
	// Findings sort by file, then line, then column, then analyzer:
	// total order, so two findings on one line cannot flip between
	// runs and CI diffs stay stable.
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Strings(res.BudgetErrors)
	return res
}

// suppressionRE matches `//lint:ignore drugtree/<analyzer> <reason>`.
var suppressionRE = regexp.MustCompile(`^//lint:ignore\s+drugtree/([a-z]+)\s*(.*)$`)

// suppressionSet records which (file, line) pairs each analyzer is
// silenced on. A suppression comment covers its own line (trailing
// form) and the line below it (standalone form).
type suppressionSet map[string]map[int]bool // "analyzer\x00file" → lines

func (s suppressionSet) covers(analyzer string, pos token.Position) bool {
	return s[analyzer+"\x00"+pos.Filename][pos.Line]
}

// suppressions scans pkg's comments for //lint:ignore directives.
// Directives with no reason, or naming an unknown analyzer, are
// reported as malformed rather than honored.
func suppressions(pkg *loader.Package) (suppressionSet, []string) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	set := make(suppressionSet)
	var malformed []string
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:ignore") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := suppressionRE.FindStringSubmatch(c.Text)
				switch {
				case m == nil:
					malformed = append(malformed, fmt.Sprintf(
						"%s:%d: malformed suppression %q (want //lint:ignore drugtree/<analyzer> reason)",
						pos.Filename, pos.Line, c.Text))
				case !known[m[1]]:
					malformed = append(malformed, fmt.Sprintf(
						"%s:%d: suppression names unknown analyzer %q", pos.Filename, pos.Line, m[1]))
				case strings.TrimSpace(m[2]) == "":
					malformed = append(malformed, fmt.Sprintf(
						"%s:%d: suppression of drugtree/%s gives no reason", pos.Filename, pos.Line, m[1]))
				default:
					key := m[1] + "\x00" + pos.Filename
					if set[key] == nil {
						set[key] = make(map[int]bool)
					}
					set[key][pos.Line] = true
					set[key][pos.Line+1] = true
				}
			}
		}
	}
	return set, malformed
}

// pathSegment reports whether any slash-separated segment of path
// equals seg — the package-scoping primitive shared by the analyzers
// (it matches both real paths like drugtree/internal/query and bare
// fixture paths like "query").
func pathSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// anySegment reports whether path contains any of the segments.
func anySegment(path string, segs []string) bool {
	for _, s := range segs {
		if pathSegment(path, s) {
			return true
		}
	}
	return false
}
